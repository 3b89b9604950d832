package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"cfsmdiag/internal/jsonl"
)

// WriteJSONL writes one event per line as JSON.  Output is byte-deterministic
// for a given event slice (encoding/json sorts map keys).
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteNarration renders the Step-6 localization events as the human-readable
// narration: each candidate under test with its live hypotheses, each
// reliable diagnostic test with the oracle's answer and how many variants it
// eliminated, each candidate's outcome and each hypothesis-space escalation.
// Every other event is skipped, so a full pipeline trace narrates the same as
// one recorded around the localization alone.
func WriteNarration(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		a := e.Attrs
		switch {
		case e.Kind == KindCandidate && e.Phase == PhaseBegin:
			fmt.Fprintf(bw, "testing candidate %s (%s hypotheses)\n", a["target"], a["hypotheses"])
		case e.Kind == KindTest && a["unreliable"] == "":
			fmt.Fprintf(bw, "  %s: \"%s\" -> \"%s\" (eliminated %s)\n", a["name"], a["inputs"], a["observed"], a["eliminated"])
		case e.Kind == KindResolved:
			fmt.Fprintf(bw, "candidate %s: %s\n", a["target"], a["outcome"])
		case e.Kind == KindInconclusive:
			fmt.Fprintf(bw, "candidate %s: inconclusive\n", a["target"])
		case e.Kind == KindEscalation:
			fmt.Fprintf(bw, "escalated hypothesis space (%s): %s diagnoses\n", a["tier"], a["diagnoses"])
		}
	}
	return bw.Flush()
}

// ErrTruncatedTrace marks a JSONL trace that ends mid-event or carries no
// events at all — the signature of an interrupted recording (crashed writer,
// partial copy).  Callers distinguish it from in-band corruption with
// errors.Is.
var ErrTruncatedTrace = errors.New("truncated trace")

// ReadJSONL parses a JSONL trace.  Blank lines are skipped.  A final line
// that is not a complete JSON event reports ErrTruncatedTrace (writers emit
// line-atomically, so a broken last line means the recording was cut short);
// a malformed line elsewhere is corruption and reports a plain parse error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	events, err := jsonl.Read[Event](r)
	var le *jsonl.LineError
	if errors.As(err, &le) {
		if le.Torn {
			return nil, fmt.Errorf("trace: line %d ends mid-event: %w", le.Line, ErrTruncatedTrace)
		}
		return nil, fmt.Errorf("trace: line %d: %w", le.Line, le.Err)
	}
	return events, err
}

// Validate checks decoded trace events against the exporter's schema: every
// event has a known kind, sequence numbers are strictly increasing, phases
// are ""/"B"/"E", span ids appear exactly on span edges, and every B is
// closed by a matching E of the same kind.  Validation targets complete
// exported traces; a truncated one (which may have lost a B edge) does not
// validate.
func Validate(events []Event) error {
	var lastSeq uint64
	open := make(map[uint64]Kind)
	for i, e := range events {
		where := fmt.Sprintf("trace: event %d (seq %d)", i+1, e.Seq)
		if !KnownKind(e.Kind) {
			return fmt.Errorf("%s: unknown kind %q", where, e.Kind)
		}
		if e.Seq <= lastSeq {
			return fmt.Errorf("%s: sequence not strictly increasing (previous %d)", where, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Phase {
		case "":
			if e.Span != 0 {
				return fmt.Errorf("%s: instant event carries span id %d", where, e.Span)
			}
		case PhaseBegin:
			if e.Span == 0 {
				return fmt.Errorf("%s: span begin without span id", where)
			}
			if prev, ok := open[e.Span]; ok {
				return fmt.Errorf("%s: span %d already open as %q", where, e.Span, prev)
			}
			open[e.Span] = e.Kind
		case PhaseEnd:
			kind, ok := open[e.Span]
			if !ok {
				return fmt.Errorf("%s: span end %d without matching begin", where, e.Span)
			}
			if kind != e.Kind {
				return fmt.Errorf("%s: span %d ends as %q but began as %q", where, e.Span, e.Kind, kind)
			}
			delete(open, e.Span)
		default:
			return fmt.Errorf("%s: invalid phase %q", where, e.Phase)
		}
	}
	if len(open) > 0 {
		for id, kind := range open {
			return fmt.Errorf("trace: span %d (%q) never closed", id, kind)
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format ("traceEvents"
// JSON array), loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    uint64            `json:"ts"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTID maps a kind's stage prefix to a synthetic thread id so Perfetto
// renders the simulator, analysis, and localization as separate tracks.
func chromeTID(k Kind) int {
	s := string(k)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = s[:i]
	}
	switch s {
	case "run":
		return 0
	case "sim":
		return 1
	case "analyze":
		return 2
	case "localize":
		return 3
	case "sweep":
		return 4
	case "oracle":
		return 5
	case "chaos":
		return 6
	default:
		return 9
	}
}

// WriteChromeTrace exports events in Chrome trace-event format.  Timestamps
// use the event sequence number (in microseconds) rather than wall-clock
// time so exports stay deterministic; the simulation step clock is kept as
// an argument on every event.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeFile{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, e := range events {
		ce := chromeEvent{
			Name: string(e.Kind),
			Cat:  string(e.Kind),
			TS:   e.Seq,
			PID:  1,
			TID:  chromeTID(e.Kind),
			Args: map[string]string{"clock": fmt.Sprintf("%d", e.Clock)},
		}
		if i := strings.IndexByte(ce.Cat, '.'); i >= 0 {
			ce.Cat = ce.Cat[:i]
		}
		for k, v := range e.Attrs {
			ce.Args[k] = v
		}
		switch e.Phase {
		case PhaseBegin:
			ce.Phase = "B"
		case PhaseEnd:
			ce.Phase = "E"
		default:
			ce.Phase = "i"
			ce.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
