package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/server/api"
	"cfsmdiag/internal/testgen"
)

// localSweep runs the single-process reference sweep every distributed
// result must match byte for byte.
func localSweep(t *testing.T, spec *cfsm.System, suite []cfsm.TestCase) experiments.SweepResult {
	t.Helper()
	res, err := experiments.RunSweepContext(context.Background(), spec, suite, experiments.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSameResult compares a distributed merge against the local reference.
func checkSameResult(t *testing.T, got *experiments.SweepResult, want experiments.SweepResult) {
	t.Helper()
	if got == nil {
		t.Fatal("no merged result")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Fatalf("distributed reports differ from local sweep:\n got %d reports\nwant %d reports", len(got.Reports), len(want.Reports))
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("counts = %v, want %v", got.Counts, want.Counts)
	}
	if got.Detected != want.Detected || got.UndetectedEquivalent != want.UndetectedEquivalent ||
		got.TotalAdditionalTests != want.TotalAdditionalTests || got.TotalAdditionalInputs != want.TotalAdditionalInputs {
		t.Fatalf("aggregates differ: got %+v", got)
	}
}

// waitSweepDone polls the coordinator until the sweep completes.
func waitSweepDone(t *testing.T, c *Coordinator, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == SweepDone {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not complete in time")
	return SweepStatus{}
}

// TestDistributedMatchesLocal drives a full distributed sweep through the
// real HTTP surface with three concurrent workers and requires the merge to
// equal the single-process sweep exactly — on the paper system and on a
// generated one.
func TestDistributedMatchesLocal(t *testing.T) {
	systems := []struct {
		name  string
		spec  *cfsm.System
		suite []cfsm.TestCase
	}{
		{"figure1", paper.MustFigure1(), paper.TestSuite()},
	}
	gen := randgen.MustGenerate(randgen.DefaultConfig())
	genSuite, _ := testgen.Tour(gen, 0)
	systems = append(systems, struct {
		name  string
		spec  *cfsm.System
		suite []cfsm.TestCase
	}{"randgen", gen, genSuite})

	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			c, err := Open(Config{LeaseTTL: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			srv := httptest.NewServer(c.Handler(nil))
			defer srv.Close()

			st, err := c.Create(sys.spec, sys.suite, Options{}, 7)
			if err != nil {
				t.Fatal(err)
			}
			if st.Ranges < 2 {
				t.Fatalf("want multiple ranges, got %d", st.Ranges)
			}

			var workers []*Worker
			for i := 0; i < 3; i++ {
				w := NewWorker(WorkerConfig{
					Name:         "w" + string(rune('a'+i)),
					Coordinators: []string{srv.URL},
					PollInterval: 5 * time.Millisecond,
				})
				w.Start()
				workers = append(workers, w)
			}
			defer func() {
				for _, w := range workers {
					w.Stop()
				}
			}()

			final := waitSweepDone(t, c, st.ID)
			if final.Done != final.Ranges {
				t.Fatalf("done = %d, ranges = %d", final.Done, final.Ranges)
			}
			res, ok := c.Result(st.ID)
			if !ok {
				t.Fatal("no result")
			}
			checkSameResult(t, res, localSweep(t, sys.spec, sys.suite))
		})
	}
}

// TestLeaseExpiryReplay kills a worker mid-range (it leases and never
// reports), lets the lease expire, and requires: the range is re-leased
// exactly once, the dead worker's late push is fenced as stale, and the
// merged result is byte-identical to the local sweep — zero verdicts lost,
// zero duplicated.
func TestLeaseExpiryReplay(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	now := time.Unix(1000, 0)
	c, err := Open(Config{LeaseTTL: time.Second, now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Create(spec, suite, Options{}, 5)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker takes the first range and dies.
	doomed, err := c.Lease(st.ID, "doomed")
	if err != nil {
		t.Fatal(err)
	}

	// Its verdicts, computed before death, for the late push below.
	doomedReports, err := experiments.RunSweepRange(context.Background(), spec, suite,
		experiments.SweepOptions{Workers: 1}, doomed.Lo, doomed.Hi)
	if err != nil {
		t.Fatal(err)
	}

	// The lease expires; the next poll reclaims and re-leases the range.
	now = now.Add(2 * time.Second)
	replacement, err := c.Lease(st.ID, "survivor")
	if err != nil {
		t.Fatal(err)
	}
	if replacement.Lo != doomed.Lo || replacement.Hi != doomed.Hi {
		t.Fatalf("expected the expired range [%d,%d) to be re-leased first, got [%d,%d)",
			doomed.Lo, doomed.Hi, replacement.Lo, replacement.Hi)
	}
	if replacement.Token == doomed.Token {
		t.Fatal("re-lease must issue a fresh fencing token")
	}

	// The dead worker's late push is fenced off as stale.
	if _, err := c.Report(st.ID, doomed.Range, doomed.Token, doomedReports); err == nil {
		t.Fatal("stale push accepted")
	} else if !errorsIs(err, ErrStaleLease) {
		t.Fatalf("want ErrStaleLease, got %v", err)
	}

	// The survivor completes the replayed range and everything else.
	if _, err := c.Report(st.ID, replacement.Range, replacement.Token, doomedReports); err != nil {
		t.Fatal(err)
	}
	for {
		lease, err := c.Lease(st.ID, "survivor")
		if errorsIs(err, ErrNoWork) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		reports, err := experiments.RunSweepRange(context.Background(), spec, suite,
			experiments.SweepOptions{Workers: 1}, lease.Lo, lease.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Report(st.ID, lease.Range, lease.Token, reports); err != nil {
			t.Fatal(err)
		}
	}

	final, err := c.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if final.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", final.Expirations)
	}
	if final.Stale != 1 {
		t.Fatalf("stale = %d, want 1", final.Stale)
	}
	ranges, err := c.Ranges(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ranges[doomed.Range].Leases != 2 {
		t.Fatalf("replayed range leased %d times, want exactly 2", ranges[doomed.Range].Leases)
	}
	res, _ := c.Result(st.ID)
	checkSameResult(t, res, localSweep(t, spec, suite))
}

// TestDuplicatePushRejected pushes a finished range a second time with its
// own (correct) token and requires the duplicate to be rejected — the range
// merges exactly once.
func TestDuplicatePushRejected(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Create(spec, suite, Options{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := c.Lease(st.ID, "w")
	if err != nil {
		t.Fatal(err)
	}
	reports, err := experiments.RunSweepRange(context.Background(), spec, suite,
		experiments.SweepOptions{Workers: 1}, lease.Lo, lease.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(st.ID, lease.Range, lease.Token, reports); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(st.ID, lease.Range, lease.Token, reports); !errorsIs(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	final, _ := c.Get(st.ID)
	if final.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", final.Duplicates)
	}
	res, _ := c.Result(st.ID)
	checkSameResult(t, res, localSweep(t, spec, suite))
}

// TestLatePushBeforeRelease covers the slow-but-alive worker: its lease
// expired (range back to pending) but nobody re-leased the range yet, so its
// token is still current and the push merges — the work is valid and
// merging beats redoing it.
func TestLatePushBeforeRelease(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	now := time.Unix(1000, 0)
	c, err := Open(Config{LeaseTTL: time.Second, now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Create(spec, suite, Options{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := c.Lease(st.ID, "slow")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second)
	if got, _ := c.Get(st.ID); got.Pending != 1 || got.Expirations != 1 {
		t.Fatalf("after expiry: %+v", got)
	}
	reports, err := experiments.RunSweepRange(context.Background(), spec, suite,
		experiments.SweepOptions{Workers: 1}, lease.Lo, lease.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(st.ID, lease.Range, lease.Token, reports); err != nil {
		t.Fatalf("late push before re-lease must merge, got %v", err)
	}
	res, _ := c.Result(st.ID)
	checkSameResult(t, res, localSweep(t, spec, suite))
}

// TestJournalRecovery restarts the coordinator mid-sweep and requires merged
// ranges to survive, leases to be forgotten (the unfinished ranges come back
// pending), and the completed sweep to match the local result. A torn tail
// line must not break recovery.
func TestJournalRecovery(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	dir := t.TempDir()

	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Create(spec, suite, Options{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Complete the first two ranges, lease (but never finish) a third.
	for i := 0; i < 2; i++ {
		lease, err := c.Lease(st.ID, "w")
		if err != nil {
			t.Fatal(err)
		}
		reports, err := experiments.RunSweepRange(context.Background(), spec, suite,
			experiments.SweepOptions{Workers: 1}, lease.Lo, lease.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Report(st.ID, lease.Range, lease.Token, reports); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Lease(st.ID, "about-to-die"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash artifact: a torn half-record at the journal tail.
	f, err := os.OpenFile(filepath.Join(dir, "cluster.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"result","sweep":"s1","ran`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != 2 {
		t.Fatalf("recovered done = %d, want 2", got.Done)
	}
	if got.Leased != 0 || got.Pending != got.Ranges-2 {
		t.Fatalf("leases must be volatile: %+v", got)
	}

	// A second created sweep must not collide with the recovered id.
	st2, err := c2.Create(spec, suite, Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("id collision after recovery: %s", st2.ID)
	}

	// Finish the recovered sweep and check the merge.
	for {
		lease, err := c2.Lease(st.ID, "w2")
		if errorsIs(err, ErrNoWork) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		reports, err := experiments.RunSweepRange(context.Background(), spec, suite,
			experiments.SweepOptions{Workers: 1}, lease.Lo, lease.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c2.Report(st.ID, lease.Range, lease.Token, reports); err != nil {
			t.Fatal(err)
		}
	}
	res, ok := c2.Result(st.ID)
	if !ok {
		t.Fatal("no result after recovery")
	}
	checkSameResult(t, res, localSweep(t, spec, suite))

	// A third coordinator replays what the second appended after cutting
	// the torn tail: every merged range of the first sweep, and the second
	// sweep.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got, err := c3.Get(st.ID); err != nil || got.Done != got.Ranges {
		t.Fatalf("third open: %+v, %v; want all %d ranges done", got, err, got.Ranges)
	}
	res, ok = c3.Result(st.ID)
	if !ok {
		t.Fatal("no result after the second restart")
	}
	checkSameResult(t, res, localSweep(t, spec, suite))
	if _, err := c3.Get(st2.ID); err != nil {
		t.Fatalf("sweep created after recovery lost on restart: %v", err)
	}
}

// TestListStableOrder creates several sweeps and requires the listing to
// come back in creation order regardless of map iteration.
func TestListStableOrder(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var want []string
	for i := 0; i < 5; i++ {
		st, err := c.Create(spec, suite, Options{}, 50)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	for round := 0; round < 3; round++ {
		got := c.List()
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i, st := range got {
			if st.ID != want[i] {
				t.Fatalf("round %d: list[%d] = %s, want %s", round, i, st.ID, want[i])
			}
		}
	}
}

// TestHandlerRoutes exercises the HTTP surface edges: inline-spec creation,
// pagination, 404s, 405s and the no-work 204.
func TestHandlerRoutes(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler(nil))
	defer srv.Close()

	spec := paper.MustFigure1()
	doc, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var sj cfsm.SystemJSON
	if err := json.Unmarshal(doc, &sj); err != nil {
		t.Fatal(err)
	}

	// Create with an inline spec and no suite (tour default).
	body, _ := json.Marshal(CreateRequest{Spec: sj, RangeSize: 11})
	resp := postJSON(t, srv.URL+"/v1/cluster/sweeps", body)
	if resp.status != 201 {
		t.Fatalf("create: %d %s", resp.status, resp.body)
	}
	var st SweepStatus
	if err := json.Unmarshal(resp.body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mutants == 0 || st.SuiteCases == 0 {
		t.Fatalf("create status: %+v", st)
	}

	// List with pagination.
	var list listResponse
	getJSON(t, srv.URL+"/v1/cluster/sweeps?limit=1", &list)
	if list.Total != 1 || len(list.Sweeps) != 1 {
		t.Fatalf("list: %+v", list)
	}

	// Unknown sweep and bad routes.
	if r := getRaw(t, srv.URL+"/v1/cluster/sweeps/nope"); r.status != 404 {
		t.Fatalf("unknown sweep: %d", r.status)
	}
	if r := postJSON(t, srv.URL+"/v1/cluster/sweeps/"+st.ID+"/ranges/zzz/result", []byte(`{}`)); r.status != 400 {
		t.Fatalf("bad range index: %d", r.status)
	}
	if r := getRaw(t, srv.URL+"/v1/cluster/sweeps/"+st.ID+"/lease"); r.status != 405 {
		t.Fatalf("GET lease: %d", r.status)
	}

	// Drain all leases; the next pull must be a 204.
	for {
		r := postJSON(t, srv.URL+"/v1/cluster/sweeps/"+st.ID+"/lease", []byte(`{"worker":"t"}`))
		if r.status == 204 {
			break
		}
		if r.status != 200 {
			t.Fatalf("lease: %d %s", r.status, r.body)
		}
	}
}

// createSweep posts a creation request to a fresh in-memory coordinator's
// handler and returns the status, the error detail (if any) and the
// coordinator's sweep count afterwards.
func createSweep(t *testing.T, spec *cfsm.System, suite []cfsm.CaseJSON) (int, api.ErrorDetail, int) {
	t.Helper()
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler(nil))
	defer srv.Close()
	doc, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var sj cfsm.SystemJSON
	if err := json.Unmarshal(doc, &sj); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(CreateRequest{Spec: sj, Suite: suite})
	resp := postJSON(t, srv.URL+"/v1/cluster/sweeps", body)
	var env api.ErrorEnvelope
	_ = json.Unmarshal(resp.body, &env)
	return resp.status, env.Error, len(c.List())
}

// TestCreateDuplicateCaseNames422 holds sweep creation to the rule every
// other surface applies: a suite naming two cases alike is 422
// duplicate_test_case, and no sweep starts.
func TestCreateDuplicateCaseNames422(t *testing.T) {
	status, detail, sweeps := createSweep(t, paper.MustFigure1(), []cfsm.CaseJSON{
		{Name: "T1", Inputs: []string{"R", "a^1"}},
		{Name: "T1", Inputs: []string{"R", "b^1"}},
	})
	if status != http.StatusUnprocessableEntity || detail.Code != api.CodeDuplicateTestCase || sweeps != 0 {
		t.Errorf("duplicate names: %d %+v, %d sweeps", status, detail, sweeps)
	}
}

// TestCreateEmptyTour422: a suite-less create whose transition tour is empty
// is refused with the tour's explanation, as /v1/diagnose refuses it.
func TestCreateEmptyTour422(t *testing.T) {
	m, err := cfsm.NewMachine("M1", "s0", []cfsm.State{"s0", "s1"}, []cfsm.Transition{
		{Name: "t1", From: "s1", Input: "a", Output: "b", To: "s1", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatal(err)
	}
	unreachable, err := cfsm.NewSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	status, detail, sweeps := createSweep(t, unreachable, nil)
	if status != http.StatusUnprocessableEntity || !strings.Contains(detail.Message, "transition tour is empty") || sweeps != 0 {
		t.Errorf("empty tour: %d %+v, %d sweeps", status, detail, sweeps)
	}
}

// TestJournalDropsDuplicateSuite opens a journal holding a sweep whose suite
// names two cases alike, as creation once allowed: the coordinator starts
// without that sweep and never reuses its id.
func TestJournalDropsDuplicateSuite(t *testing.T) {
	dir := t.TempDir()
	doc, err := paper.MustFigure1().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(journalRecord{
		Op: opCreate, Sweep: "s1", Spec: doc, RangeSize: 50,
		Suite: []cfsm.CaseJSON{{Name: "T1", Inputs: []string{"R"}}, {Name: "T1", Inputs: []string{"R"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), append(rec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get("s1"); !errorsIs(err, ErrNotFound) {
		t.Fatalf("dropped sweep: err = %v", err)
	}
	st, err := c.Create(paper.MustFigure1(), paper.TestSuite(), Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "s1" {
		t.Fatal("new sweep reused the dropped sweep's id")
	}
}

// TestWorkerAttachDetach verifies runtime attachment and the failure-driven
// drop of attached (but not static) coordinators.
func TestWorkerAttachDetach(t *testing.T) {
	w := NewWorker(WorkerConfig{Name: "w", Coordinators: []string{"http://static.invalid"}})
	w.Attach("http://adhoc.invalid")
	if got := len(w.Coordinators()); got != 2 {
		t.Fatalf("coordinators = %d, want 2", got)
	}
	// Both endpoints fail every pass; only the attached one is dropped.
	for i := 0; i < attachFailureLimit+1; i++ {
		w.RunOnce(context.Background())
	}
	got := w.Coordinators()
	if len(got) != 1 || got[0] != "http://static.invalid" {
		t.Fatalf("after failures: %v", got)
	}
}

// --- small test helpers ---

type rawResponse struct {
	status int
	body   []byte
}

func postJSON(t *testing.T, url string, body []byte) rawResponse {
	t.Helper()
	resp, err := httpPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getRaw(t *testing.T, url string) rawResponse {
	t.Helper()
	resp, err := httpGet(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp := getRaw(t, url)
	if resp.status != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.status, resp.body)
	}
	if err := json.Unmarshal(resp.body, v); err != nil {
		t.Fatal(err)
	}
}

func errorsIs(err, target error) bool { return errors.Is(err, target) }

func httpPost(url string, body []byte) (rawResponse, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return rawResponse{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return rawResponse{status: resp.StatusCode, body: data}, nil
}

func httpGet(url string) (rawResponse, error) {
	resp, err := http.Get(url)
	if err != nil {
		return rawResponse{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return rawResponse{status: resp.StatusCode, body: data}, nil
}
