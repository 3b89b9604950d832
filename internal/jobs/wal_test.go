package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cfsmdiag/internal/jsonl"
)

// countingExec tracks how many times each payload actually executed across
// manager generations — the exactly-once ledger of the replay tests.
type countingExec struct {
	mu    sync.Mutex
	runs  map[string]int
	block map[string]chan struct{} // payloads that must hang until killed
}

func newCountingExec() *countingExec {
	return &countingExec{runs: make(map[string]int), block: make(map[string]chan struct{})}
}

func (c *countingExec) exec(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	key := string(payload)
	c.mu.Lock()
	c.runs[key]++
	gate := c.block[key]
	c.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return json.RawMessage(fmt.Sprintf(`{"ran":%s}`, payload)), nil
}

func (c *countingExec) count(payload string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[payload]
}

func payloadN(n int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"n":%d}`, n))
}

// TestWALReplayExactlyOnce is the crash story end to end: complete some
// jobs, kill the process with others mid-run and others still queued, then
// restart. Completed jobs keep their results and never re-run; everything
// else runs exactly once more.
func TestWALReplayExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	ce := newCountingExec()
	// Jobs 4 and 5 hang mid-run until the kill cancels them.
	ce.block[`{"n":4}`] = make(chan struct{})
	ce.block[`{"n":5}`] = make(chan struct{})

	m, err := Open(Config{Workers: 2, Dir: dir}, map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1a: jobs 1-3 run to completion.
	for n := 1; n <= 3; n++ {
		if _, err := m.Submit(SubmitRequest{Kind: "count", Payload: payloadN(n)}); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, m)

	// Phase 1b: jobs 4-5 occupy both workers mid-run; 6-10 pile up queued.
	ids := make(map[int]string)
	for n := 4; n <= 10; n++ {
		j, err := m.Submit(SubmitRequest{Kind: "count", Payload: payloadN(n)})
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = j.ID
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Running != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("blockers never occupied the workers: %+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	m.kill() // simulated crash: in-flight work aborted, nothing recorded

	// Phase 2: a new manager over the same directory. Open the gates so the
	// replayed runs of 4 and 5 can finish this time.
	close(ce.block[`{"n":4}`])
	close(ce.block[`{"n":5}`])
	m2, err := Open(Config{Workers: 2, Dir: dir}, map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	if got := m2.Stats().Replayed; got != 7 {
		t.Fatalf("replayed = %d, want 7 (jobs 4-10)", got)
	}
	waitIdle(t, m2)

	for n := 1; n <= 3; n++ {
		if got := ce.count(string(payloadN(n))); got != 1 {
			t.Errorf("job %d executed %d times, want 1 (completed before crash)", n, got)
		}
	}
	for n := 4; n <= 5; n++ {
		// The aborted pre-crash run counts as an execution attempt, but the
		// job itself completes exactly once — on the post-crash run.
		if got := ce.count(string(payloadN(n))); got != 2 {
			t.Errorf("job %d executed %d times, want 2 (aborted + replayed)", n, got)
		}
		j, err := m2.Get(ids[n])
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateSucceeded {
			t.Errorf("job %d state = %s, want succeeded", n, j.State)
		}
		if j.Attempts != 2 {
			t.Errorf("job %d attempts = %d, want 2", n, j.Attempts)
		}
	}
	for n := 6; n <= 10; n++ {
		if got := ce.count(string(payloadN(n))); got != 1 {
			t.Errorf("job %d executed %d times, want 1 (queued at crash)", n, got)
		}
		j, err := m2.Get(ids[n])
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateSucceeded {
			t.Errorf("job %d state = %s, want succeeded", n, j.State)
		}
	}

	// Results recorded before the crash survive verbatim.
	all := m2.List()
	var one *Job
	for _, j := range all {
		if string(j.Payload) == `{"n":1}` && !j.Cached {
			one = j
			break
		}
	}
	if one == nil {
		t.Fatal("pre-crash job 1 missing after recovery")
	}
	if string(one.Result) != `{"ran":{"n":1}}` {
		t.Fatalf("pre-crash result = %s", one.Result)
	}
}

// TestRecoveryWarmsResultCache: a result recorded before the restart answers
// a duplicate submission after it without re-running the executor.
func TestRecoveryWarmsResultCache(t *testing.T) {
	dir := t.TempDir()
	ce := newCountingExec()

	m, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(SubmitRequest{Kind: "count", Payload: payloadN(1)}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	closeNow(t, m)

	m2, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	j, err := m2.Submit(SubmitRequest{Kind: "count", Payload: payloadN(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Cached || j.State != StateSucceeded {
		t.Fatalf("post-restart duplicate: cached=%v state=%s", j.Cached, j.State)
	}
	if got := ce.count(`{"n":1}`); got != 1 {
		t.Fatalf("executor ran %d times, want 1", got)
	}
}

// TestSnapshotCompactionBoundsWAL: with a tiny SnapshotEvery the WAL is
// repeatedly truncated, and the state still survives a clean restart.
func TestSnapshotCompactionBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	ce := newCountingExec()
	m, err := Open(Config{Workers: 2, Dir: dir, SnapshotEvery: 4},
		map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 20; n++ {
		if _, err := m.Submit(SubmitRequest{Kind: "count", Payload: payloadN(n)}); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, m)
	closeNow(t, m)

	if fi, err := os.Stat(walPath(dir)); err != nil {
		t.Fatal(err)
	} else if fi.Size() != 0 {
		t.Fatalf("WAL not truncated after final snapshot: %d bytes", fi.Size())
	}
	if _, err := os.Stat(snapshotPath(dir)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}

	m2, err := Open(Config{Workers: 2, Dir: dir}, map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	if got := len(m2.List()); got != 20 {
		t.Fatalf("recovered %d jobs, want 20", got)
	}
	for _, j := range m2.List() {
		if j.State != StateSucceeded {
			t.Fatalf("recovered job %s state = %s, want succeeded", j.ID, j.State)
		}
	}
}

// TestTornWALTailIsTolerated: a partial trailing line — the signature of a
// crash mid-append — must not poison recovery of the intact prefix.
func TestTornWALTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	j := &Job{ID: "j1", Kind: "count", Priority: PriorityBatch,
		Key: ContentKey("count", payloadN(1)), Payload: payloadN(1),
		State: StateQueued, EnqueuedAt: time.Now().UTC()}
	rec, err := json.Marshal(walRecord{Op: opSubmit, Job: j})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, rec...), []byte("\n{\"op\":\"done\",\"id\":\"j1\",\"sta")...)
	if err := os.WriteFile(walPath(dir), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ce := newCountingExec()
	m, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatalf("recovery rejected torn tail: %v", err)
	}
	defer closeNow(t, m)
	if got := m.Stats().Replayed; got != 1 {
		t.Fatalf("replayed = %d, want 1 (the intact submit)", got)
	}
	waitIdle(t, m)
	got, err := m.Get("j1")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateSucceeded {
		t.Fatalf("replayed job state = %s, want succeeded", got.State)
	}
}

// submitLine is the WAL line of a fresh queued job jn.
func submitLine(t *testing.T, n int) []byte {
	t.Helper()
	j := &Job{ID: fmt.Sprintf("j%d", n), Kind: "count", Priority: PriorityBatch,
		Key: ContentKey("count", payloadN(n)), Payload: payloadN(n),
		State: StateQueued, EnqueuedAt: time.Now().UTC()}
	rec, err := json.Marshal(walRecord{Op: opSubmit, Job: j})
	if err != nil {
		t.Fatal(err)
	}
	return append(rec, '\n')
}

// TestCorruptWALMiddleLineIsAnError: a bad line with intact records after it
// is not a torn tail. Recovery must refuse it with the line's position, not
// replay j1 alone and let the opening compaction drop j2 for good.
func TestCorruptWALMiddleLineIsAnError(t *testing.T) {
	dir := t.TempDir()
	first := submitLine(t, 1)
	wal := append(append(append([]byte{}, first...), "{garbage\n"...), submitLine(t, 2)...)
	if err := os.WriteFile(walPath(dir), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"count": newCountingExec().exec})
	var le *jsonl.LineError
	if !errors.As(err, &le) || le.Torn || le.Line != 2 || le.Offset != int64(len(first)) {
		t.Fatalf("err = %v, want a corrupt-line error at line 2, byte offset %d", err, len(first))
	}
	if got, _ := os.ReadFile(walPath(dir)); !bytes.Equal(got, wal) {
		t.Fatalf("refused recovery rewrote the WAL: %q", got)
	}
}

// TestTornWALTailThenAppendsSurviveTwoRestarts: jobs recorded after a
// recovery that cut a torn tail survive two further crashes.
func TestTornWALTailThenAppendsSurviveTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	torn := append(submitLine(t, 1), `{"op":"done","id":"j1","sta`...)
	if err := os.WriteFile(walPath(dir), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	ce := newCountingExec()
	execs := map[string]Executor{"count": ce.exec}
	m, err := Open(Config{Workers: 1, Dir: dir}, execs)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(SubmitRequest{Kind: "count", Payload: payloadN(2)})
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	m.kill() // no final snapshot: j2's records live only in the WAL
	for restart := 1; restart <= 2; restart++ {
		m, err = Open(Config{Workers: 1, Dir: dir}, execs)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		for _, id := range []string{"j1", j2.ID} {
			j, err := m.Get(id)
			if err != nil {
				t.Fatalf("restart %d: %v", restart, err)
			}
			if j.State != StateSucceeded {
				t.Fatalf("restart %d: %s state = %s, want succeeded", restart, id, j.State)
			}
		}
		m.kill()
	}
	for n := 1; n <= 2; n++ {
		if got := ce.count(string(payloadN(n))); got != 1 {
			t.Errorf("job %d executed %d times, want 1", n, got)
		}
	}
}

// TestCorruptSnapshotIsAnError: unlike a torn WAL tail, a mangled snapshot
// is not safely recoverable and must refuse to open.
func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(snapshotPath(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"echo": echoExec})
	if err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestDurableCancelSurvivesRestart: a cancel recorded in the WAL keeps the
// job canceled after recovery instead of re-queueing it.
func TestDurableCancelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	exec := func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		select {
		case <-gate:
			return payload, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"work": exec})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := m.Submit(SubmitRequest{Kind: "work", Payload: payloadN(1)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	victim, err := m.Submit(SubmitRequest{Kind: "work", Payload: payloadN(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	m.kill() // crash after the cancel hit the WAL; blocker aborts

	m2, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"work": exec})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	got, err := m2.Get(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("canceled job after restart = %s, want canceled", got.State)
	}
	// The blocker (start, no done) replays; release it this time.
	close(gate)
	waitIdle(t, m2)
	got, err = m2.Get(blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateSucceeded {
		t.Fatalf("replayed blocker state = %s, want succeeded", got.State)
	}
}

// TestStoreFilesLayout pins the on-disk names so operators can find them.
func TestStoreFilesLayout(t *testing.T) {
	if got := walPath("/x"); got != filepath.Join("/x", "wal.jsonl") {
		t.Fatalf("walPath = %s", got)
	}
	if got := snapshotPath("/x"); got != filepath.Join("/x", "snapshot.json") {
		t.Fatalf("snapshotPath = %s", got)
	}
}
