package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// runHTTP is the timing run of a diagnose_* workload: set-up, warm-up, the
// open loop at the workload's rate, then a saturation phase, every response
// checked against the library afterwards.
func runHTTP(opt options) (outcome, error) {
	openFor := time.Duration(float64(opt.seconds) * openShare)
	satFor := opt.seconds - openFor
	s, err := buildStream(opt.workload, opt.seed, openFor, satFor)
	if err != nil {
		return outcome{}, err
	}
	c := newChecker(len(s.targets))
	var t tally

	srv, setups, err := setUp(opt.server, s, c, &t)
	if err != nil {
		return outcome{}, err
	}
	defer srv.stop()
	conns := newConns(srv.url, runtime.NumCPU())
	defer closeConns(conns)

	var cursor atomic.Int64
	warm := closedLoop(conns, s, &cursor, warmup)
	before, err := scrape(srv.url)
	if err != nil {
		return outcome{}, err
	}
	// The open loop and the saturation phase alternate in windows slices
	// of the run, so both sample every stretch of the host's load: a busy
	// spell on a shared host then disturbs a few slices of each metric
	// instead of the whole of one.
	cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return outcome{}, err
	}
	rssDuring := sampleRSS(srv.cmd.Process.Pid)
	openSlice, satSlice := openFor/windows, satFor/windows
	var open, sat []sample
	perSlice := make([]float64, windows)
	for k, lo := 0, 0; k < windows; k++ {
		sliceStart := openSlice * time.Duration(k)
		hi := lo
		var part []arrival
		for ; hi < len(s.open) && (s.open[hi].due < sliceStart+openSlice || k == windows-1); hi++ {
			part = append(part, arrival{due: s.open[hi].due - sliceStart, req: s.open[hi].req})
		}
		lo = hi
		for _, smp := range openLoop(conns, s, part) {
			smp.shift(sliceStart)
			open = append(open, smp)
		}
		for _, smp := range closedLoop(conns, s, &cursor, satSlice) {
			if smp.done < satSlice {
				perSlice[k]++
			}
			sat = append(sat, smp)
		}
		perSlice[k] /= satSlice.Seconds()
	}
	cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		rssDuring.finish()
		return outcome{}, err
	}
	after, err := scrape(srv.url)
	rss := rssDuring.finish()
	if err != nil {
		return outcome{}, err
	}
	srv.stop()

	t.add(c, s, warm)
	// Only the open loop feeds addl_*: its requests are fixed by the seed,
	// so the cost figures repeat exactly for a seed.
	var timed tally
	timed.add(c, s, open)
	addlTests, addlInputs := timed.perDetected()
	timed.add(c, s, sat)
	t.merge(timed)

	// The server's own counters must agree with the responses.
	delta := func(name string) float64 { return after[name] - before[name] }
	if got := int(delta(metricOracleQueries)); got != timed.oracleQueries {
		t.fail(fmt.Sprintf("/metrics counted %d oracle queries, the responses imply %d", got, timed.oracleQueries))
	}

	lat := make([]float64, len(open))
	due := make([]time.Duration, len(open))
	var late, wait, rtt []float64
	for i, smp := range open {
		lat[i], due[i] = ms(smp.latency()), smp.due
		rtt = append(rtt, ms(smp.roundTrip()))
		late = append(late, ms(smp.lateness()))
		wait = append(wait, ms(smp.connWait()))
	}
	nSlices := max(1, len(open)/sliceSamples)
	p50s := sliceQuantiles(due, lat, openFor, nSlices, 0.5)
	p90s := sliceQuantiles(due, lat, openFor, nSlices, 0.9)
	sliceDetails := map[string]any{"p50": slices.Clone(p50s), "p90": slices.Clone(p90s)}
	hits, misses := delta(metricRegistryHits), delta(metricRegistryMisses)
	// The server's CPU time over the timed slices, per request served.
	cpuPerMutant := (cpu1 - cpu0) * 1000 / float64(len(open)+len(sat))
	return outcome{
		res: result{
			Correct:   t.failed == 0,
			Attempted: t.attempted,
			Failed:    t.failed,
			Metrics:   endToEnd(cpuPerMutant, median(slices.Clone(perSlice)), addlTests, addlInputs, median(setups), rss),
		},
		details: map[string]any{
			"rate":               opt.workload.rate,
			"p50_ms":             median(p50s),
			"p90_ms":             median(p90s),
			"open_samples":       len(open),
			"latency_slices_n":   nSlices,
			"saturation_samples": len(sat),
			"saturation_slices":  perSlice,
			"latency_slices":     sliceDetails,
			"warmup_samples":     len(warm),
			"setup_runs":         setups,
			"lateness_p50_ms":    quantile(late, 0.5),
			"lateness_p99_ms":    quantile(late, 0.99),
			"round_trip_p50_ms":  quantile(rtt, 0.5),
			"conn_wait_p50_ms":   quantile(wait, 0.5),
			"registry_hit_ratio": hits / (hits + misses),
			"oracle_queries":     timed.oracleQueries,
			// Not cross-checked: on the randgen systems single cases saturate
			// at ports.MaxInterleavings, beyond what the exposition's float64
			// (and the int64 counter) can sum exactly.
			"interleavings_scraped": delta(metricInterleavings),
			"detected":              timed.detected,
			"failures":              t.errors,
		},
	}, nil
}

// setUp starts the server setupRepeats times, timing each start up to the
// first correct response; the last server stays up for the run.
func setUp(bin string, s *stream, c *checker, t *tally) (*serverProc, []float64, error) {
	first := s.first
	body := s.bodies[first]
	if _, err := c.expect(first, body); err != nil {
		return nil, nil, err
	}
	var setups []float64
	for i := 0; ; i++ {
		start := time.Now()
		srv, err := startServer(bin)
		if err != nil {
			return nil, nil, err
		}
		conn := newConns(srv.url, 1)[0]
		status, resp, err := conn.post(body)
		setups = append(setups, time.Since(start).Seconds())
		conn.close()
		t.attempted++
		if err == nil {
			_, err = c.verify(first, body, status, resp)
		}
		if err != nil {
			t.fail(fmt.Sprintf("set-up %d: first response: %v", i+1, err))
		}
		if i == setupRepeats-1 {
			return srv, setups, nil
		}
		srv.stop()
	}
}
