package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cfsmdiag/internal/jsonl"
)

// The durable store is a classic snapshot + write-ahead-log pair:
//
//	dir/snapshot.json  full state at the last compaction (jobs + id counter)
//	dir/wal.jsonl      one JSON record per state change since the snapshot
//
// Every mutation appends a walRecord; every SnapshotEvery records the state
// is re-written as a fresh snapshot and the log truncated, bounding both
// recovery time and disk growth. Appends go straight to the OS (surviving a
// process kill); the snapshot rename is the only fsync point, which trades
// strict power-loss durability for queue throughput — the right trade for a
// diagnosis cache, and documented so operators know.

// WAL operation names.
const (
	opSubmit = "submit"
	opStart  = "start"
	opDone   = "done"
	opCancel = "cancel"
)

// walRecord is one append-only log entry. Submit carries the full job (for
// cache hits the job is already terminal, result included); the other ops
// patch the job by ID.
type walRecord struct {
	Op     string          `json:"op"`
	Job    *Job            `json:"job,omitempty"`
	ID     string          `json:"id,omitempty"`
	State  State           `json:"state,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	At     time.Time       `json:"at,omitempty"`
}

// snapshotDoc is the compacted on-disk state.
type snapshotDoc struct {
	// NextID is the first unissued numeric job-ID suffix.
	NextID int    `json:"nextId"`
	Jobs   []*Job `json:"jobs"`
}

func walPath(dir string) string      { return filepath.Join(dir, "wal.jsonl") }
func snapshotPath(dir string) string { return filepath.Join(dir, "snapshot.json") }

// openStore loads the persisted state (snapshot, then WAL replay), leaves
// the WAL open for appending and advances the ID counter past every
// recovered job. It returns the recovered jobs keyed by ID; jsonl.Open cuts
// a torn tail off or refuses corruption.
func (m *Manager) openStore(dir string) (map[string]*Job, error) {
	jobs := make(map[string]*Job)
	if data, err := os.ReadFile(snapshotPath(dir)); err == nil {
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("jobs: corrupt snapshot %s: %w", snapshotPath(dir), err)
		}
		for _, j := range doc.Jobs {
			jobs[j.ID] = j
		}
		m.nextID = max(m.nextID, doc.NextID)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("jobs: read snapshot: %w", err)
	}

	wal, records, err := jsonl.Open[walRecord](walPath(dir))
	if err != nil {
		return nil, fmt.Errorf("jobs: open wal: %w", err)
	}
	for _, rec := range records {
		applyRecord(jobs, rec)
	}
	for id := range jobs {
		m.nextID = max(m.nextID, idNumber(id)+1)
	}
	m.dir, m.wal = dir, wal
	return jobs, nil
}

// applyRecord folds one WAL record into the recovered state.
func applyRecord(jobs map[string]*Job, rec walRecord) {
	switch rec.Op {
	case opSubmit:
		if rec.Job != nil {
			jobs[rec.Job.ID] = rec.Job
		}
	case opStart:
		if j, ok := jobs[rec.ID]; ok && !j.State.Terminal() {
			j.State = StateRunning
			j.Attempts++
			j.StartedAt = rec.At
		}
	case opDone:
		if j, ok := jobs[rec.ID]; ok {
			j.State = rec.State
			j.Result = rec.Result
			j.Error = rec.Error
			j.FinishedAt = rec.At
		}
	case opCancel:
		if j, ok := jobs[rec.ID]; ok && !j.State.Terminal() {
			j.State = StateCanceled
			j.FinishedAt = rec.At
		}
	}
}

// idNumber extracts the numeric suffix of a job ID ("j42" -> 42; 0 when the
// ID is foreign).
func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}

// snapshotLocked writes the full state atomically (tmp + fsync + rename)
// and truncates the WAL.
func (m *Manager) snapshotLocked() error {
	doc := snapshotDoc{NextID: m.nextID, Jobs: make([]*Job, 0, len(m.jobs))}
	for _, j := range m.jobs {
		doc.Jobs = append(doc.Jobs, j)
	}
	sort.Slice(doc.Jobs, func(i, k int) bool {
		return idNumber(doc.Jobs[i].ID) < idNumber(doc.Jobs[k].ID)
	})
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("jobs: encode snapshot: %w", err)
	}
	tmp := snapshotPath(m.dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: create snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobs: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobs: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, snapshotPath(m.dir)); err != nil {
		return fmt.Errorf("jobs: install snapshot: %w", err)
	}
	if err := m.wal.Reset(); err != nil {
		return fmt.Errorf("jobs: truncate wal: %w", err)
	}
	m.walRecords = 0
	return nil
}
