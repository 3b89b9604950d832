package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/testgen"
)

// The content-addressed model registry. Every endpoint that accepts a
// specification resolves it through the registry, so a model is decoded and
// validated once per content: an entry holds the validated *cfsm.System, its
// canonical hash and, each built on first use, its compiled program, its
// transition tour and the compiled suites diagnoses of it run. All are
// immutable once built, so one entry is shared across concurrent requests
// and job workers; each diagnosis takes its own single-goroutine
// compiled.Engine over the shared program from compiled.EngineFor and
// releases it when done, so requests pay only for what differs between
// them: the implementation under test and its observations.
//
// A request suite, or the tour a suite-less request runs, is interned
// (modelEntry.compiledSuite): a suite equal in names and inputs to the
// entry's last one reuses that one's slice and compiled form, so the
// engine's identity-keyed suite cache hits.
//
// The registry holds one entry per canonical content hash, under two key
// namespaces:
//
//   - "<hex hash>": the canonical content hash (compiled.ModelHash), computed
//     once when a model is first registered. Requests reference it via the
//     *Ref request fields and GET /v1/models/{hash}.
//   - "doc:<hex hash>": the SHA-256 of an inline document's raw bytes, so a
//     repeated inline submission skips decoding and validation altogether.
//     Byte-different spellings of one model are more keys of one entry, so
//     they resolve to one system, program, tour and suite slot.
//
// An inline implementation under test is never registered: the diagnosis
// runs it only as the black-box oracle, and clients seldom send the same one
// twice within the registry's window. When the specification is inline too
// and the IUT's document is the specification's with one transition object
// rewritten, only that object is read, and the IUT runs as a one-cell
// overlay over the specification's program (iutpatch.go). For that, a
// document key keeps the byte span of every transition object of its
// spelling: spans belong to a spelling, not to the model. Any other inline
// IUT is read in full, and an iutRef still resolves through the registry.
//
// The cache is bounded by key count and evicts the least recently used key.
// Every use of an entry marks its hash key most recently used last, so the
// hash key outlives the entry's document keys and every entry held is
// registered under its hash.

// Model registry metric families.
const (
	metricModelHits    = "cfsmdiag_model_registry_hits_total"
	metricModelMisses  = "cfsmdiag_model_registry_misses_total"
	metricModelSize    = "cfsmdiag_model_registry_size"
	metricModelUploads = "cfsmdiag_model_uploads_total"
	metricModelRejects = "cfsmdiag_model_rejects_total"
)

// modelEntry is one registered model.
type modelEntry struct {
	sys  *cfsm.System
	hash string // compiled.ModelHash(sys)

	compileOnce sync.Once
	prog        *compiled.Program

	tourOnce  sync.Once
	tourCases []cfsm.TestCase
	uncovered []cfsm.Ref

	// lastCases and lastSuite are a one-slot cache of the suite last
	// diagnosed, clipped and compiled. Guarded by suiteMu.
	suiteMu   sync.Mutex
	lastCases []cfsm.TestCase
	lastSuite *compiled.Suite
}

// program returns the entry's compiled program, compiled on first use.
func (e *modelEntry) program() *compiled.Program {
	e.compileOnce.Do(func() {
		// Compile fails only on a nil system, and a registered one never is.
		e.prog, _ = compiled.Compile(e.sys)
	})
	return e.prog
}

// engine returns an engine over the shared program with the compiled suite
// cs installed when it is not nil. The caller releases it after its last
// use.
func (e *modelEntry) engine(cs *compiled.Suite) *compiled.Engine {
	// EngineFor fails only on a nil program, and program() never returns one.
	eng, _ := compiled.EngineFor(e.program())
	if cs != nil {
		eng.SetSuite(cs)
	}
	return eng
}

// tour returns the transition tour of the entry's system (testgen.Tour with
// no length bound) and the transitions it cannot reach, generated on first
// use. Every caller shares the slices, so none may modify them; the tour is
// clipped so that an append copies instead of writing into it.
func (e *modelEntry) tour() ([]cfsm.TestCase, []cfsm.Ref) {
	e.tourOnce.Do(func() {
		tour, uncovered := testgen.Tour(e.sys, 0)
		e.tourCases, e.uncovered = slices.Clip(tour), slices.Clip(uncovered)
	})
	return e.tourCases, e.uncovered
}

// suiteOrTour is testgen.SuiteOrTour over the entry's cached tour.
func (e *modelEntry) suiteOrTour(suite []cfsm.TestCase) ([]cfsm.TestCase, error) {
	if len(suite) > 0 {
		return suite, nil
	}
	tour, _, err := testgen.NonEmptyTour(e.tour())
	return tour, err
}

// compiledSuite interns a suite in the entry's one-slot cache: a suite equal
// in names and inputs to the cached one resolves to its shared slice and
// compiled form, and any other suite is clipped, compiled and takes the
// slot. Nothing is compiled for an empty suite.
func (e *modelEntry) compiledSuite(suite []cfsm.TestCase) ([]cfsm.TestCase, *compiled.Suite) {
	if len(suite) == 0 {
		return suite, nil
	}
	e.suiteMu.Lock()
	cases, cs := e.lastCases, e.lastSuite
	e.suiteMu.Unlock()
	if slices.EqualFunc(cases, suite, func(a, b cfsm.TestCase) bool {
		return a.Name == b.Name && slices.Equal(a.Inputs, b.Inputs)
	}) {
		return cases, cs
	}
	cases = slices.Clip(suite)
	cs = compiled.NewSuite(e.program(), cases)
	e.suiteMu.Lock()
	e.lastCases, e.lastSuite = cases, cs
	e.suiteMu.Unlock()
	return cases, cs
}

// modelRegistry is a bounded LRU cache of registered models.
type modelRegistry struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // key -> element of lru
	lru     *list.List               // of keyedEntry, least recently used first

	hits    *obs.Counter
	misses  *obs.Counter
	uploads *obs.Counter
	rejects *obs.Counter
	size    *obs.Gauge
}

type keyedEntry struct {
	key   string
	entry *modelEntry
	// spans locates the transition objects of the document a "doc:" key
	// names (cfsm.ReadSystemSpans); nil under a hash key.
	spans []cfsm.TransitionSpan
}

func newModelRegistry(reg *obs.Registry, capEntries int) *modelRegistry {
	return &modelRegistry{
		cap:     capEntries,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		hits:    reg.Counter(metricModelHits, "Model resolutions served from the registry cache."),
		misses:  reg.Counter(metricModelMisses, "Model resolutions that had to parse and validate the model."),
		uploads: reg.Counter(metricModelUploads, "Models accepted by POST /v1/models."),
		rejects: reg.Counter(metricModelRejects, "Model uploads rejected (bad format, bad hash, invalid model)."),
		size:    reg.Gauge(metricModelSize, "Cache entries currently held by the model registry."),
	}
}

// get looks a key up without touching the hit/miss counters.
func (mr *modelRegistry) get(key string) (*modelEntry, bool) {
	ke, ok := mr.lookup(key)
	return ke.entry, ok
}

// lookup is get that returns the key's spans with its entry. A hit marks the
// key most recently used, and its entry's hash key after it.
func (mr *modelRegistry) lookup(key string) (keyedEntry, bool) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	el, ok := mr.entries[key]
	if !ok {
		return keyedEntry{}, false
	}
	ke := el.Value.(keyedEntry)
	mr.lru.MoveToBack(el)
	mr.lru.MoveToBack(mr.entries[ke.entry.hash])
	return ke, true
}

// add registers sys under its canonical hash and, when docKey is not empty,
// under that document key too, with the spans of that document. A system
// whose hash is already held joins that entry, so every spelling of a model
// shares one entry. It returns the entry and whether its hash was already
// held.
func (mr *modelRegistry) add(sys *cfsm.System, docKey string, spans []cfsm.TransitionSpan) (*modelEntry, bool) {
	hash := compiled.ModelHash(sys)
	mr.mu.Lock()
	defer mr.mu.Unlock()
	el, cached := mr.entries[hash]
	if !cached {
		el = mr.lru.PushBack(keyedEntry{key: hash, entry: &modelEntry{sys: sys, hash: hash}})
		mr.entries[hash] = el
	}
	e := el.Value.(keyedEntry).entry
	if _, ok := mr.entries[docKey]; docKey != "" && !ok {
		mr.entries[docKey] = mr.lru.PushBack(keyedEntry{key: docKey, entry: e, spans: spans})
	}
	mr.lru.MoveToBack(el)
	for mr.lru.Len() > mr.cap {
		delete(mr.entries, mr.lru.Remove(mr.lru.Front()).(keyedEntry).key)
	}
	mr.size.Set(int64(len(mr.entries)))
	return e, cached
}

// byHash returns the model stored under a content hash.
func (mr *modelRegistry) byHash(hash string) (*modelEntry, bool) {
	e, ok := mr.get(hash)
	if ok {
		mr.hits.Inc()
	} else {
		mr.misses.Inc()
	}
	return e, ok
}

// readInline reads an inline JSON document in full, a registry miss.
func (mr *modelRegistry) readInline(doc json.RawMessage) (*cfsm.System, error) {
	mr.misses.Inc()
	return cfsm.ReadSystem(orNull(doc))
}

// orNull reads an omitted document as an explicit null: the empty system,
// which fails validation.
func orNull(doc json.RawMessage) json.RawMessage {
	if len(doc) == 0 {
		return json.RawMessage("null")
	}
	return doc
}

// resolveInline resolves an inline JSON document, keyed by its raw bytes: a
// hit skips decoding and validation, a miss reads the model and registers
// it under its document key and its hash. It returns the spans of the
// document's transition objects with the entry.
func (mr *modelRegistry) resolveInline(doc json.RawMessage) (*modelEntry, []cfsm.TransitionSpan, error) {
	doc = orNull(doc)
	sum := sha256.Sum256(doc)
	docKey := "doc:" + hex.EncodeToString(sum[:])
	if ke, ok := mr.lookup(docKey); ok {
		mr.hits.Inc()
		return ke.entry, ke.spans, nil
	}
	mr.misses.Inc()
	sys, spans, err := cfsm.ReadSystemSpans(doc)
	if err != nil {
		return nil, nil, err
	}
	e, _ := mr.add(sys, docKey, spans)
	return e, spans, nil
}

// resolveModel resolves a request's (inline document, registry reference)
// pair. A non-empty ref must name an uploaded or previously seen model; it
// takes precedence over the inline document.
func (s *api) resolveModel(doc json.RawMessage, ref string) (*modelEntry, error) {
	if ref != "" {
		if e, ok := s.models.byHash(ref); ok {
			return e, nil
		}
		return nil, fmt.Errorf("model %s is not in the registry; upload it with POST /v1/models", ref)
	}
	e, _, err := s.models.resolveInline(doc)
	return e, err
}

// resolveIUT resolves a diagnosis' implementation under test: a reference
// through the registry, an inline document by reading it.
func (s *api) resolveIUT(doc json.RawMessage, ref string) (*cfsm.System, error) {
	if ref == "" {
		return s.models.readInline(doc)
	}
	e, err := s.resolveModel(nil, ref)
	if err != nil {
		return nil, err
	}
	return e.sys, nil
}

// --- POST /v1/models and GET /v1/models/{hash} ---

type modelResponse struct {
	Hash        string `json:"hash"`
	Machines    int    `json:"machines"`
	Transitions int    `json:"transitions"`
	// Cached reports whether the model was already in the registry.
	Cached bool `json:"cached"`
}

// handleModels accepts a model upload in either wire format: a JSON system
// document, or the versioned binary form produced by `cfsmdiag convert`
// (sniffed by its magic). Binary files with an unsupported version, a
// content-hash mismatch or a truncated payload answer 422 with the
// unsupported_model_format code; models that fail validation answer 422
// unprocessable.
func (s *api) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Errorf("%s requires POST", r.URL.Path))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	var sys *cfsm.System
	if compiled.IsBinary(data) {
		sys, err = compiled.DecodeSystem(data)
		if err != nil {
			s.models.rejects.Inc()
			switch {
			case errors.Is(err, compiled.ErrUnsupportedVersion),
				errors.Is(err, compiled.ErrTruncated),
				errors.Is(err, compiled.ErrHashMismatch),
				errors.Is(err, compiled.ErrBadMagic):
				writeErr(w, http.StatusUnprocessableEntity, codeUnsupportedModel, err)
			default:
				// Structurally sound file, but the model breaks the rules.
				writeErr(w, http.StatusUnprocessableEntity, codeUnprocessable, err)
			}
			return
		}
	} else if sys, err = cfsm.ReadSystem(data); err != nil {
		s.models.rejects.Inc()
		writePipelineErr(w, err)
		return
	}
	e, cached := s.models.add(sys, "", nil)
	s.models.uploads.Inc()
	writeJSON(w, http.StatusOK, modelResponse{
		Hash:        e.hash,
		Machines:    sys.N(),
		Transitions: sys.NumTransitions(),
		Cached:      cached,
	})
}

type modelGetResponse struct {
	Hash string          `json:"hash"`
	Spec json.RawMessage `json:"spec"`
}

// handleModelGet serves a registered model back by its content hash, as the
// JSON document, or as the binary form with "?format=binary".
func (s *api) handleModelGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Errorf("%s requires GET", r.URL.Path))
		return
	}
	hash := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	if hash == "" || strings.Contains(hash, "/") {
		writeErr(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no such route %s", r.URL.Path))
		return
	}
	e, ok := s.models.byHash(hash)
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("model %s is not in the registry", hash))
		return
	}
	if r.URL.Query().Get("format") == "binary" {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(compiled.EncodeSystem(e.sys))
		return
	}
	doc, err := e.sys.MarshalJSON()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, modelGetResponse{Hash: hash, Spec: doc})
}
