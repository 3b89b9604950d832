package jsonl

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzJSONL drives the shared reader and the log from raw bytes:
//
//   - arbitrary bytes as a log file and as a stream never panic; under a
//     lowered line cap a long line is an error, not an unbounded buffer; a
//     log that opens takes appends and replays them after a reopen;
//   - a valid log built from the same bytes, cut at every byte offset,
//     replays exactly the records whose newline lies before the cut, the
//     stream reader agrees, and reopen-and-append round-trips.
func FuzzJSONL(f *testing.F) {
	lowerCap(f, 256)
	f.Add([]byte("{\"n\":1}\n{\"n\":2,\"s\":\"two\"}\n"))
	f.Add([]byte("{\"n\":1}\n{garbage\n{\"n\":3}\n"))
	f.Add([]byte("\n \r\n{\"n\":1}"))
	f.Add([]byte("[1,2]\nnull\n\"s\"\n{\"n\":1e400}\n"))
	f.Add([]byte(strings.Repeat("\xff{", 200)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()

		// Arbitrary bytes: the log and the stream reader see the same lines
		// and differ only on a final line without its newline.
		streamed, readErr := Read[rec](bytes.NewReader(data))
		le, _ := readErr.(*LineError)
		path := filepath.Join(dir, "raw.jsonl")
		l, got, err := openFile(t, path, data)
		if refuse := readErr != nil && (le == nil || !le.Torn); (err != nil) != refuse {
			t.Fatalf("open err = %v, stream err = %v", err, readErr)
		}
		if err == nil {
			if !same(got, streamed) && !same(got, streamed[:max(len(streamed)-1, 0)]) {
				t.Fatalf("open replayed %+v, stream read %+v", got, streamed)
			}
			checkAppendRoundTrip(t, l, path, got)
		}

		// A valid log from the same bytes, cut at every offset.
		var recs []rec
		for i := 0; i < len(data) && len(recs) < 4; i += 4 {
			chunk := data[i:min(i+4, len(data))]
			recs = append(recs, rec{N: int(chunk[0]), S: strings.ToValidUTF8(string(chunk[1:]), "?")})
		}
		log := encode(t, recs)
		path = filepath.Join(dir, "cut.jsonl")
		for cut := 0; cut <= len(log); cut++ {
			whole := bytes.Count(log[:cut], []byte{'\n'})
			l, got, err := openFile(t, path, log[:cut])
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if !same(got, recs[:whole]) {
				t.Fatalf("cut at %d replayed %+v, want %+v", cut, got, recs[:whole])
			}
			// The stream reader also counts a final line cut just before
			// its newline; any other partial line is a torn tail.
			want := recs[:whole]
			if cut < len(log) && log[cut] == '\n' {
				want = recs[:whole+1]
			}
			streamed, err := Read[rec](bytes.NewReader(log[:cut]))
			if le, ok := err.(*LineError); err != nil && (!ok || !le.Torn) {
				t.Fatalf("stream cut at %d: %v", cut, err)
			}
			if !same(streamed, want) {
				t.Fatalf("stream cut at %d read %+v, want %+v", cut, streamed, want)
			}
			checkAppendRoundTrip(t, l, path, got)
		}
	})
}

// checkAppendRoundTrip appends one record to the open log l holding prior,
// reopens it and requires prior plus the new record back, then closes it.
func checkAppendRoundTrip(t *testing.T, l *Log, path string, prior []rec) {
	t.Helper()
	extra := rec{N: -1, S: "appended"}
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	l, got := reopen(t, l, path)
	defer l.Close()
	want := append(append([]rec{}, prior...), extra)
	if !same(got, want) {
		t.Fatalf("after append replayed %+v, want %+v", got, want)
	}
}

// same compares record lists, nil and empty alike.
func same(a, b []rec) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
