package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// encode frames recs the way Append writes them.
func encode(t testing.TB, recs []rec) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

// openFile writes data as a log file and opens it.
func openFile(t testing.TB, path string, data []byte) (*Log, []rec, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open[rec](path)
}

// reopen closes l and opens path again, failing the test on any error.
func reopen(t testing.TB, l *Log, path string) (*Log, []rec) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open[rec](path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return l, got
}

// lowerCap sets the line cap to n for the rest of the test.
func lowerCap(tb testing.TB, n int) {
	old := maxLine
	maxLine = n
	tb.Cleanup(func() { maxLine = old })
}

// TestTornTailIsCutBeforeAppend: records appended after a torn tail survive
// two restarts. Without the cut, the first new record is glued onto the torn
// line and the second open drops it and everything after it.
func TestTornTailIsCutBeforeAppend(t *testing.T) {
	for _, torn := range []string{`{"n":3,"s":"tor`, `{"n":3}`, "{garbage\n", "{garbage\n\n  \n"} {
		t.Run(torn, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			intact := []rec{{N: 1}, {N: 2, S: "two"}}
			l, got, err := openFile(t, path, append(encode(t, intact), torn...))
			if err != nil {
				t.Fatalf("torn tail refused: %v", err)
			}
			if !reflect.DeepEqual(got, intact) {
				t.Fatalf("replayed %+v, want %+v", got, intact)
			}
			want := append(intact, rec{N: 4}, rec{N: 5})
			for _, r := range want[2:] {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			for restart := 1; restart <= 2; restart++ {
				l, got = reopen(t, l, path)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("restart %d replayed %+v, want %+v", restart, got, want)
				}
			}
			l.Close()
			if data, _ := os.ReadFile(path); !bytes.Equal(data, encode(t, want)) {
				t.Fatalf("file = %q", data)
			}
		})
	}
}

// TestCorruptMiddleLineIsAnError: a bad line followed by intact ones is not
// a crash artifact; Open refuses it with its position instead of dropping
// the records after it, and leaves the file untouched.
func TestCorruptMiddleLineIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	first := encode(t, []rec{{N: 1}})
	data := append(append(append([]byte{}, first...), "\n{garbage\n"...), encode(t, []rec{{N: 2}})...)
	_, _, err := openFile(t, path, data)
	var le *LineError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want a *LineError", err)
	}
	if le.Torn || le.Line != 3 || le.Offset != int64(len(first)+1) {
		t.Fatalf("LineError = %+v, want corrupt line 3 at byte %d", le, len(first)+1)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatalf("refused open modified the file: %q", after)
	}
}

// TestReadFraming pins the reader contract the trace reader relies on.
func TestReadFraming(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []rec
		line int  // LineError line, 0 for none
		torn bool // LineError.Torn
	}{
		{"empty", "", nil, 0, false},
		{"blank lines skipped", "\n  \n{\"n\":1}\r\n\n{\"n\":2}\n\t\n", []rec{{N: 1}, {N: 2}}, 0, false},
		{"unterminated last line counts", "{\"n\":1}\n{\"n\":2}", []rec{{N: 1}, {N: 2}}, 0, false},
		{"torn last line", "{\"n\":1}\n{\"n\":", []rec{{N: 1}}, 2, true},
		{"bad last line then blanks", "{\"n\":1}\nnope\n\n", []rec{{N: 1}}, 2, true},
		{"corrupt middle line", "{\"n\":1}\n\nnope\n{\"n\":2}\n", []rec{{N: 1}}, 3, false},
		{"two bad lines", "nope\n{\"n\":\n", nil, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Read[rec](strings.NewReader(tc.in))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("records = %+v, want %+v", got, tc.want)
			}
			le, _ := err.(*LineError)
			switch {
			case tc.line == 0 && err != nil:
				t.Fatalf("err = %v", err)
			case tc.line != 0 && (le == nil || le.Line != tc.line || le.Torn != tc.torn):
				t.Fatalf("err = %v, want line %d torn=%v", err, tc.line, tc.torn)
			}
		})
	}
}

// TestLineCap: a line longer than the cap is an error for readers and for
// Append; a line exactly at the cap, newline included, is accepted.
func TestLineCap(t *testing.T) {
	lowerCap(t, 32)
	at := rec{S: strings.Repeat("x", 32-len(`{"n":0,"s":""}`)-1)}
	over := rec{S: at.S + "x"}
	if _, err := Read[rec](bytes.NewReader(encode(t, []rec{at}))); err != nil {
		t.Fatalf("line at the cap refused: %v", err)
	}
	if _, err := Read[rec](bytes.NewReader(encode(t, []rec{at, over}))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over the cap: err = %v, want bufio.ErrTooLong", err)
	}
	l, _, err := Open[rec](filepath.Join(t.TempDir(), "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(at); err != nil {
		t.Fatalf("append at the cap: %v", err)
	}
	if err := l.Append(over); err == nil {
		t.Fatal("append over the cap accepted")
	}
}

// TestReset: a reset log replays nothing and appends from the start.
func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, err := openFile(t, path, encode(t, []rec{{N: 1}, {N: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{N: 3}); err != nil {
		t.Fatal(err)
	}
	l, got := reopen(t, l, path)
	defer l.Close()
	if want := []rec{{N: 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after reset replayed %+v, want %+v", got, want)
	}
}
