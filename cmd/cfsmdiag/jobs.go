package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
)

// cmdJobs is the client for the /v1/jobs batch API of a running `cfsmdiag
// serve -jobs` service, plus the in-process E13 throughput bench.
func cmdJobs(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cfsmdiag jobs <submit|status|result|cancel|list|watch|bench> ...")
	}
	switch args[0] {
	case "submit":
		return cmdJobsSubmit(args[1:], out)
	case "status":
		return cmdJobsShow(args[1:], out, "")
	case "result":
		return cmdJobsShow(args[1:], out, "/result")
	case "cancel":
		return cmdJobsCancel(args[1:], out)
	case "list":
		return cmdJobsList(args[1:], out)
	case "watch":
		return cmdJobsWatch(args[1:], out)
	case "bench":
		return cmdJobsBench(args[1:], out)
	default:
		return fmt.Errorf("unknown jobs subcommand %q (want submit, status, result, cancel, list, watch or bench)", args[0])
	}
}

// jobDoc mirrors the server's job status/result wire form.
type jobDoc struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	Priority   string          `json:"priority"`
	Key        string          `json:"key"`
	State      string          `json:"state"`
	Cached     bool            `json:"cached,omitempty"`
	Attempts   int             `json:"attempts,omitempty"`
	Error      string          `json:"error,omitempty"`
	EnqueuedAt time.Time       `json:"enqueuedAt"`
	StartedAt  *time.Time      `json:"startedAt,omitempty"`
	FinishedAt *time.Time      `json:"finishedAt,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// jobsCall performs one API call and decodes the response or the error
// envelope into a useful error.
func jobsCall(method, url string, body []byte, v any) error {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(data, &envelope) == nil && envelope.Error.Code != "" {
			if retry := resp.Header.Get("Retry-After"); retry != "" {
				return fmt.Errorf("%s (%s; retry after %ss)", envelope.Error.Message, envelope.Error.Code, retry)
			}
			return fmt.Errorf("%s (%s)", envelope.Error.Message, envelope.Error.Code)
		}
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

// buildJobRequest assembles the job's request document from -paper or the
// -spec/-iut/-suite files. The raw file bytes are embedded as-is; the server
// canonicalizes them before content addressing.
func buildJobRequest(kind string, usePaper bool, specPath, iutPath, suitePath string) (json.RawMessage, error) {
	doc := map[string]json.RawMessage{}
	if usePaper {
		if specPath != "" || iutPath != "" {
			return nil, fmt.Errorf("-paper replaces -spec and -iut")
		}
		specData, err := paper.MustFigure1().MarshalJSON()
		if err != nil {
			return nil, err
		}
		doc["spec"] = specData
		if kind == "diagnose" {
			iut, err := paper.FaultyImplementation()
			if err != nil {
				return nil, err
			}
			if doc["iut"], err = iut.MarshalJSON(); err != nil {
				return nil, err
			}
			if doc["suite"], err = json.Marshal(cfsm.EncodeSuite(paper.TestSuite())); err != nil {
				return nil, err
			}
		}
	} else {
		if specPath == "" {
			return nil, fmt.Errorf("need -spec (or -paper)")
		}
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		doc["spec"] = data
		if kind == "diagnose" {
			if iutPath == "" {
				return nil, fmt.Errorf("kind diagnose needs -iut (or -paper)")
			}
			if doc["iut"], err = os.ReadFile(iutPath); err != nil {
				return nil, err
			}
		}
	}
	if suitePath != "" {
		suite, err := readSuite(suitePath)
		if err != nil {
			return nil, fmt.Errorf("suite: %w", err)
		}
		if doc["suite"], err = json.Marshal(cfsm.EncodeSuite(suite)); err != nil {
			return nil, err
		}
	}
	return json.Marshal(doc)
}

func printJob(out io.Writer, j jobDoc) {
	cached := ""
	if j.Cached {
		cached = " (cached)"
	}
	fmt.Fprintf(out, "%s  kind=%s  priority=%s  state=%s%s\n", j.ID, j.Kind, j.Priority, j.State, cached)
	if j.Error != "" {
		fmt.Fprintf(out, "  error: %s\n", j.Error)
	}
}

func cmdJobsSubmit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the running service")
	kind := fs.String("kind", "diagnose", "job kind: diagnose or sweep")
	priority := fs.String("priority", "", "priority class: interactive or batch (default batch)")
	tenant := fs.String("tenant", "", "tenant attribution for per-tenant fair admission (optional)")
	usePaper := fs.Bool("paper", false, "submit the built-in Figure 1 request (spec, faulty IUT, paper suite)")
	specPath := fs.String("spec", "", "specification system JSON file")
	iutPath := fs.String("iut", "", "implementation-under-test system JSON file (diagnose)")
	suitePath := fs.String("suite", "", "test suite JSON file (optional)")
	requestPath := fs.String("request", "", "raw request document file (overrides -paper/-spec/-iut/-suite)")
	wait := fs.Bool("wait", false, "follow the job until it is terminal and print its result")
	interval := fs.Duration("interval", 250*time.Millisecond, "pause before redialing a dropped event stream with -wait")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	var request json.RawMessage
	var err error
	if *requestPath != "" {
		if request, err = os.ReadFile(*requestPath); err != nil {
			return err
		}
	} else if request, err = buildJobRequest(*kind, *usePaper, *specPath, *iutPath, *suitePath); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"kind":     *kind,
		"priority": *priority,
		"tenant":   *tenant,
		"request":  request,
	})
	if err != nil {
		return err
	}
	var j jobDoc
	if err := jobsCall(http.MethodPost, strings.TrimRight(*addr, "/")+"/v1/jobs", body, &j); err != nil {
		return err
	}
	printJob(out, j)
	if !*wait {
		return nil
	}
	return watchJob(*addr, j.ID, *interval, out)
}

func cmdJobsShow(args []string, out io.Writer, suffix string) error {
	fs := flag.NewFlagSet("jobs status", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the running service")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cfsmdiag jobs status|result <job-id> [-addr URL]")
	}
	var j jobDoc
	if err := jobsCall(http.MethodGet, strings.TrimRight(*addr, "/")+"/v1/jobs/"+fs.Arg(0)+suffix, nil, &j); err != nil {
		return err
	}
	if suffix == "" {
		printJob(out, j)
		return nil
	}
	if len(j.Result) > 0 {
		var pretty bytes.Buffer
		if json.Indent(&pretty, j.Result, "", "  ") == nil {
			fmt.Fprintln(out, pretty.String())
			return nil
		}
		fmt.Fprintln(out, string(j.Result))
		return nil
	}
	printJob(out, j)
	return nil
}

func cmdJobsCancel(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs cancel", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the running service")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cfsmdiag jobs cancel <job-id> [-addr URL]")
	}
	var j jobDoc
	if err := jobsCall(http.MethodPost, strings.TrimRight(*addr, "/")+"/v1/jobs/"+fs.Arg(0)+"/cancel", nil, &j); err != nil {
		return err
	}
	printJob(out, j)
	return nil
}

func cmdJobsList(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs list", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the running service")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	var doc struct {
		Jobs  []jobDoc        `json:"jobs"`
		Stats json.RawMessage `json:"stats"`
	}
	if err := jobsCall(http.MethodGet, strings.TrimRight(*addr, "/")+"/v1/jobs", nil, &doc); err != nil {
		return err
	}
	for _, j := range doc.Jobs {
		printJob(out, j)
	}
	fmt.Fprintf(out, "stats: %s\n", string(doc.Stats))
	return nil
}

func cmdJobsWatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs watch", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the running service")
	interval := fs.Duration("interval", 250*time.Millisecond, "pause before redialing a dropped event stream")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cfsmdiag jobs watch <job-id> [-addr URL] [-interval d]")
	}
	return watchJob(*addr, fs.Arg(0), *interval, out)
}

// jobEventDoc mirrors the server's lifecycle-event wire form (sse.go).
type jobEventDoc struct {
	Seq      int    `json:"seq"`
	Job      string `json:"job"`
	State    string `json:"state"`
	Terminal bool   `json:"terminal"`
	Cached   bool   `json:"cached,omitempty"`
	Error    string `json:"error,omitempty"`
}

// watchState carries the resume position across reconnects and from the
// stream to the long poll, so neither replays what the other already
// printed.
type watchState struct {
	after int // last event seq seen
}

func (w *watchState) printEvent(out io.Writer, ev jobEventDoc) {
	w.after = ev.Seq
	cached := ""
	if ev.Cached {
		cached = " (cached)"
	}
	fmt.Fprintf(out, "%s  state=%s%s\n", ev.Job, ev.State, cached)
	if ev.Error != "" {
		fmt.Fprintf(out, "  error: %s\n", ev.Error)
	}
}

// finishJob completes a watch at a terminal event: succeeded jobs get their
// result fetched (the one permitted follow-up request) and pretty-printed.
func finishJob(base, id, state string, out io.Writer) error {
	if state != "succeeded" {
		return nil
	}
	var res jobDoc
	if err := jobsCall(http.MethodGet, base+"/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return err
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, res.Result, "", "  ") == nil {
		fmt.Fprintln(out, pretty.String())
	} else {
		fmt.Fprintln(out, string(res.Result))
	}
	return nil
}

// streamSSE holds one SSE connection to the events route and prints frames
// as they arrive. finished means the terminal event was handled; supported
// false means this server (or the path to it) cannot stream and the caller
// should fall back to the long poll. A true return with neither means the
// connection dropped mid-stream — redial and resume from w.after.
func (w *watchState) streamSSE(base, id string, out io.Writer) (finished, supported bool, err error) {
	req, err := http.NewRequest(http.MethodGet,
		base+"/v1/jobs/"+id+"/events?after="+strconv.Itoa(w.after), nil)
	if err != nil {
		return false, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, false, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		io.Copy(io.Discard, resp.Body)
		return false, false, nil
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		// Heartbeat comments, id:/event:/retry: fields and frame separators
		// carry nothing the data JSON does not repeat.
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev jobEventDoc
		if err := json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &ev); err != nil {
			return false, true, fmt.Errorf("bad event frame: %w", err)
		}
		w.printEvent(out, ev)
		if ev.Terminal {
			return true, true, finishJob(base, id, ev.State, out)
		}
	}
	return false, true, nil
}

// longPollOnce is the fallback for paths that cannot hold an SSE stream:
// one GET ?wait=&after= returning the events as JSON. Its error — a server
// without the events route answers not_found — ends the watch.
func (w *watchState) longPollOnce(base, id string, out io.Writer) (finished bool, err error) {
	var doc struct {
		Events []jobEventDoc `json:"events"`
	}
	url := base + "/v1/jobs/" + id + "/events?wait=30s&after=" + strconv.Itoa(w.after)
	if err := jobsCall(http.MethodGet, url, nil, &doc); err != nil {
		return false, err
	}
	for _, ev := range doc.Events {
		w.printEvent(out, ev)
		if ev.Terminal {
			return true, finishJob(base, id, ev.State, out)
		}
	}
	return false, nil
}

// watchJob follows a job to its terminal state on the events route: SSE
// first, and the long-poll surface when a stream will not hold. It issues
// no status polls at all.
func watchJob(addr, id string, interval time.Duration, out io.Writer) error {
	base := strings.TrimRight(addr, "/")
	w := &watchState{}
	for sse := true; ; {
		if sse {
			finished, supported, err := w.streamSSE(base, id, out)
			if finished || err != nil {
				return err
			}
			if supported {
				// Stream dropped mid-watch: pause briefly, redial, resume.
				time.Sleep(interval)
				continue
			}
			sse = false
		}
		if finished, err := w.longPollOnce(base, id, out); finished || err != nil {
			return err
		}
	}
}

// cmdJobsBench runs experiment E13 in-process (no server needed) and writes
// the machine-readable record, mirroring `cfsmdiag sweep -benchjson`.
func cmdJobsBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs bench", flag.ContinueOnError)
	total := fs.Int("jobs", 500, "total submissions (unique + seeded duplicates)")
	unique := fs.Int("unique", 0, "distinct payloads (0 = the full Figure 1 mutant space)")
	workers := fs.Int("workers", 0, "job worker pool size (<=0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "seed for the duplicate-draw schedule")
	path := fs.String("out", "BENCH_jobs.json", "output path for the record")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	rec, err := experiments.RunJobsBench(experiments.JobsBenchOptions{
		Jobs:    *total,
		Unique:  *unique,
		Workers: *workers,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d jobs (%d unique + %d cached) on %d workers; cold %.0f jobs/sec, cached %.0f jobs/sec (%.0fx), mean wait %.2fms, mean run %.2fms\n",
		*path, rec.Jobs, rec.Unique, rec.Duplicates, rec.Workers,
		rec.ColdJobsPerSec, rec.CachedJobsPerSec, rec.CacheSpeedup,
		rec.MeanWaitMS, rec.MeanRunMS)
	return nil
}
