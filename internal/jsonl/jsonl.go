// Package jsonl is the one line-framed JSON format of the module: framing,
// line cap and torn-tail policy for the jobs write-ahead log, the cluster
// coordinator's journal and the JSONL trace reader. A log record counts once
// its newline is written, so recovery is:
//
//   - a torn tail (a last line that is unterminated or does not parse: a
//     crash mid-append) is cut off on Open, before the first new append;
//   - a line that does not parse but has lines after it cannot come from a
//     crash, since Append cuts a failed write back off, so Open refuses the
//     log with a *LineError naming the line and its byte offset instead of
//     dropping every record after it.
//
// Blank lines are skipped. No line, newline included, may exceed 64 MiB.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// maxLine caps a line, newline included, for readers and Append alike. It
// is a variable only so tests can lower it.
var maxLine = 64 << 20

// LineError reports a line that does not decode.
type LineError struct {
	Line   int   // 1-based line number
	Offset int64 // byte offset of the line's first byte
	// Torn reports that no non-blank line follows: the stream was cut short
	// inside its last record. Otherwise the line is corruption.
	Torn bool
	Err  error
}

func (e *LineError) Error() string {
	return fmt.Sprintf("line %d (byte offset %d) does not decode: %v", e.Line, e.Offset, e.Err)
}

func (e *LineError) Unwrap() error { return e.Err }

// Read decodes every non-blank line of r into a T. A line that does not
// decode ends the read with a bare *LineError, Torn if no non-blank line
// follows. Unlike Open, Read counts a final line without a newline when it
// decodes: streams such as exported traces may end without one.
func Read[T any](r io.Reader) ([]T, error) {
	recs, _, err := read[T](r, false)
	return recs, err
}

// read is Read that also returns the offset just past the last decoded
// line. With whole set, a line also needs its newline to count.
func read[T any](r io.Reader, whole bool) (recs []T, end int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	sc.Split(scanLine)
	var off int64
	var bad *LineError
	for no := 1; sc.Scan(); no++ {
		line := sc.Bytes()
		off += int64(len(line))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if bad != nil {
			return recs, end, bad
		}
		var v T
		err := json.Unmarshal(line, &v)
		if err == nil && whole && line[len(line)-1] != '\n' {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			bad = &LineError{Line: no, Offset: off - int64(len(line)), Err: err}
			continue
		}
		recs, end = append(recs, v), off
	}
	if err := sc.Err(); err != nil || bad == nil {
		return recs, end, err
	}
	bad.Torn = true
	return recs, end, bad
}

// scanLine is bufio.ScanLines keeping the newline, so that line lengths
// add up to byte offsets and an unterminated last line shows.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Log is an append-only JSONL file. It is not safe for concurrent use;
// callers serialize its methods under their own lock.
type Log struct {
	f   *os.File
	end int64 // length of the intact prefix: the next record's offset
}

// Open opens the log at path, creating it and its directory when missing,
// cuts a torn tail off and returns the records decoded into T. A corrupt
// middle line fails it with a wrapped *LineError.
func Open[T any](path string) (*Log, []T, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("jsonl: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jsonl: %w", err)
	}
	recs, end, err := read[T](f, true)
	if le, ok := err.(*LineError); ok && le.Torn {
		err = nil
	}
	if err == nil {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jsonl: %s: %w", path, err)
	}
	return &Log{f: f, end: end}, recs, nil
}

// Append writes v as the next record. A write that fails part-way is cut
// back off before the error returns, so a live process never leaves a
// corrupt line in front of later records.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jsonl: encode record: %w", err)
	}
	line = append(line, '\n')
	if len(line) > maxLine {
		return fmt.Errorf("jsonl: %d-byte record exceeds the %d-byte line cap", len(line), maxLine)
	}
	if _, err := l.f.WriteAt(line, l.end); err != nil {
		return fmt.Errorf("jsonl: append: %w", errors.Join(err, l.f.Truncate(l.end)))
	}
	l.end += int64(len(line))
	return nil
}

// Reset empties the log, once the caller has saved its state elsewhere.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("jsonl: reset: %w", err)
	}
	l.end = 0
	return nil
}

// Close releases the file.
func (l *Log) Close() error { return l.f.Close() }
