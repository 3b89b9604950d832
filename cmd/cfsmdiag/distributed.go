package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/cluster"
	"cfsmdiag/internal/server"
)

// distSweepConfig selects where `cfsmdiag sweep -distributed` finds its
// coordinator: an external one (-coordinator URL) or an embedded one that the
// named workers are attached to for the duration of the run (-workers-urls).
type distSweepConfig struct {
	coordinator string
	workerURLs  []string
	rangeSize   int
	equiv       bool
}

// runDistributedSweep shards the mutant sweep over /v1/cluster workers and
// prints the same outcome table as the local sweep. The verdicts are merged
// in fault-enumeration order on the coordinator, so the result is identical
// to `cfsmdiag sweep` on one machine — only the wall-clock changes.
func runDistributedSweep(sys *cfsm.System, suite []cfsm.TestCase, cfg distSweepConfig, out io.Writer) error {
	base := cfg.coordinator
	if base == "" {
		if len(cfg.workerURLs) == 0 {
			return fmt.Errorf("-distributed needs -coordinator URL or -workers-urls u1,u2")
		}
		// Embedded coordinator: serve /v1/cluster from this process on a
		// loopback port and attach the named workers to it. Workers drop the
		// endpoint on their own once this process exits and their polls fail.
		svc, err := server.NewService(server.Config{
			EnableCluster:    true,
			ClusterRangeSize: cfg.rangeSize,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close(context.Background())
			return err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		defer func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			svc.Close(ctx)
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(out, "embedded coordinator on %s\n", base)
		for _, wu := range cfg.workerURLs {
			body, _ := json.Marshal(map[string]string{"coordinator": base})
			if err := jobsCall(http.MethodPost, wu+"/v1/cluster/attach", body, nil); err != nil {
				return fmt.Errorf("attach %s: %w", wu, err)
			}
			fmt.Fprintf(out, "attached worker %s\n", wu)
		}
	}

	doc, err := sys.MarshalJSON()
	if err != nil {
		return err
	}
	var specJSON cfsm.SystemJSON
	if err := json.Unmarshal(doc, &specJSON); err != nil {
		return err
	}
	createBody, err := json.Marshal(cluster.CreateRequest{
		Spec:             specJSON,
		Suite:            cfsm.EncodeSuite(suite),
		RangeSize:        cfg.rangeSize,
		CheckEquivalence: cfg.equiv,
	})
	if err != nil {
		return err
	}
	var st cluster.SweepStatus
	if err := jobsCall(http.MethodPost, base+"/v1/cluster/sweeps", createBody, &st); err != nil {
		return err
	}
	fmt.Fprintf(out, "sweep %s: %d mutants in %d ranges of %d (suite: %d cases)\n",
		st.ID, st.Mutants, st.Ranges, st.RangeSize, st.SuiteCases)

	start := time.Now()
	deadline := start.Add(10 * time.Minute)
	for st.State != cluster.SweepDone {
		if time.Now().After(deadline) {
			return fmt.Errorf("sweep %s stalled at %d/%d ranges — are any workers attached and alive?",
				st.ID, st.Done, st.Ranges)
		}
		time.Sleep(25 * time.Millisecond)
		if err := jobsCall(http.MethodGet, base+"/v1/cluster/sweeps/"+st.ID, nil, &st); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	sum := st.Result
	if sum == nil {
		return fmt.Errorf("sweep %s is done but carries no merged summary", st.ID)
	}
	fmt.Fprintf(out, "swept %d mutants across %d ranges in %v (%.0f mutants/sec)\n",
		sum.Mutants, st.Ranges, elapsed, float64(sum.Mutants)/elapsed.Seconds())
	printSweepOutcomes(out, *sum)
	if st.Expirations > 0 || st.Stale > 0 || st.Duplicates > 0 {
		fmt.Fprintf(out, "cluster: %d lease expirations, %d stale pushes, %d duplicate pushes (all fenced; every verdict merged exactly once)\n",
			st.Expirations, st.Stale, st.Duplicates)
	}
	return nil
}
