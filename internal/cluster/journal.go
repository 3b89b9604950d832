package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cfsmdiag/internal/cfsm"
)

// Journal operations. Creations record the full sweep inputs; results record
// one merged range. Leases are never journaled — they are volatile by
// design, so a restarted coordinator re-offers every unfinished range.
const (
	opCreate = "create"
	opResult = "result"
)

// journalRecord is one JSONL line of the cluster journal.
type journalRecord struct {
	Op    string    `json:"op"`
	Sweep string    `json:"sweep"`
	At    time.Time `json:"at,omitempty"`
	// create fields
	Spec      json.RawMessage `json:"spec,omitempty"`
	Suite     []cfsm.CaseJSON `json:"suite,omitempty"`
	Options   *Options        `json:"options,omitempty"`
	RangeSize int             `json:"rangeSize,omitempty"`
	// result fields
	Range   int          `json:"range"`
	Reports []ReportJSON `json:"reports,omitempty"`
}

// journal is the append handle of the cluster journal file.
type journal struct {
	f *os.File
}

func journalPath(dir string) string { return filepath.Join(dir, "cluster.jsonl") }

// openJournal reads every intact record of dir's journal — a torn tail line
// (crash mid-append) ends the replay without failing it — and returns an
// append handle positioned after the intact prefix.
func openJournal(dir string) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("cluster: create journal dir: %w", err)
	}
	var records []journalRecord
	if f, err := os.Open(journalPath(dir)); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				break // torn tail write; everything before it is intact
			}
			records = append(records, rec)
		}
		f.Close()
		if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
			return nil, nil, fmt.Errorf("cluster: read journal: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("cluster: open journal: %w", err)
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: open journal for append: %w", err)
	}
	return &journal{f: f}, records, nil
}

// append writes one record under the coordinator's lock.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: encode journal record: %w", err)
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("cluster: append journal: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}
