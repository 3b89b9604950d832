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

// The content-addressed model registry. Every endpoint that accepts a system
// resolves it through the registry, so a model is decoded and validated once
// per content: an entry holds the validated *cfsm.System and, each built on
// first use, its canonical hash, its compiled program, its transition tour
// and the compiled suites diagnoses of it run. All are immutable once built,
// so one entry is shared across concurrent requests and job workers; each
// diagnosis takes its own single-goroutine compiled.Engine over the shared
// program from compiled.EngineFor and releases it when done, so requests
// pay only for what differs between them: the implementation under test and
// its observations.
//
// A request suite, or the tour a suite-less request runs, is interned
// (modelEntry.compiledSuite): a suite equal in names and inputs to the
// entry's last one reuses that one's slice and compiled form, so the
// engine's identity-keyed suite cache hits.
//
// Two key namespaces share the cache, both naming entries:
//
//   - "<hex hash>": the canonical content hash (compiled.ModelHash). An
//     uploaded model is registered under it at once; an inline document
//     only when it is first used as a specification (program), which is
//     when its hash is computed. Requests reference it via the *Ref request
//     fields and GET /v1/models/{hash}.
//   - "doc:<hex hash>": the SHA-256 of an inline document's raw bytes, so a
//     repeated inline submission skips decoding and validation altogether.
//     An inline document seen only as an implementation under test is
//     reachable by this key alone and never pays for the canonical encoding.
//     Byte-different spellings of one specification are separate entries
//     that share the compiled program of whichever was hashed first.
//
// The cache is bounded by key count and evicts the least recently used key.
// An inline entry not registered under its canonical hash is charged for
// that key all the same, so computing hashes lazily does not let the cap
// hold more models than when every inline entry had both keys.

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
	reg *modelRegistry
	sys *cfsm.System
	// hash is compiled.ModelHash(sys), "" until the entry is uploaded or
	// first used as a specification. Guarded by reg.mu.
	hash string
	// charged marks an entry whose document key is held but which is not
	// registered under its canonical hash; the cap counts that key anyway.
	// Guarded by reg.mu.
	charged bool

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

// program returns the entry's compiled program. On first use it computes the
// canonical hash and registers the entry under it; when another entry
// already holds the hash, that entry's program is shared instead of
// compiling again. Only specifications call it, so IUT-only entries are
// never hashed or compiled.
func (e *modelEntry) program() *compiled.Program {
	e.compileOnce.Do(func() {
		// An entry waits here only on one that held the hash before this
		// call; registration under a hash happens once per entry, on upload
		// or in this very function, so the waits cannot form a cycle.
		if held := e.reg.canonical(e); held != e {
			e.prog = held.program()
			return
		}
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
	charged int                      // entries with charged set

	hits    *obs.Counter
	misses  *obs.Counter
	uploads *obs.Counter
	rejects *obs.Counter
	size    *obs.Gauge
}

type keyedEntry struct {
	key   string
	entry *modelEntry
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

// get looks a key up without touching the hit/miss counters. A hit marks
// the key most recently used, and with it the entry's canonical hash, so a
// model kept hot by its inline document stays resolvable by reference.
func (mr *modelRegistry) get(key string) (*modelEntry, bool) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	el, ok := mr.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(keyedEntry).entry
	if h, ok := mr.entries[e.hash]; e.hash != "" && ok {
		mr.lru.MoveToBack(h)
	}
	mr.lru.MoveToBack(el)
	return e, true
}

// add registers sys under key, with its canonical hash when known, unless
// the key is taken; it returns the entry the key names and whether it was
// already present.
func (mr *modelRegistry) add(key string, sys *cfsm.System, hash string) (*modelEntry, bool) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if el, ok := mr.entries[key]; ok {
		mr.lru.MoveToBack(el)
		return el.Value.(keyedEntry).entry, true
	}
	e := &modelEntry{reg: mr, sys: sys, hash: hash, charged: hash == ""}
	if e.charged {
		mr.charged++
	}
	mr.insert(key, e)
	return e, false
}

// canonical computes e's canonical hash if it is not known yet and returns
// the entry held under it, registering e there when no entry is.
func (mr *modelRegistry) canonical(e *modelEntry) *modelEntry {
	// After the entry's creation only this call, made once per entry, writes
	// e.hash, so reading it here needs no lock.
	hash := e.hash
	if hash == "" {
		hash = compiled.ModelHash(e.sys)
	}
	mr.mu.Lock()
	defer mr.mu.Unlock()
	e.hash = hash
	if el, ok := mr.entries[hash]; ok {
		mr.lru.MoveToBack(el)
		return el.Value.(keyedEntry).entry
	}
	if e.charged {
		e.charged = false
		mr.charged--
	}
	mr.insert(hash, e)
	return e
}

// insert adds a key and evicts least recently used keys beyond the cap;
// mr.mu is held.
func (mr *modelRegistry) insert(key string, e *modelEntry) {
	mr.entries[key] = mr.lru.PushBack(keyedEntry{key: key, entry: e})
	for mr.lru.Len() > 0 && mr.lru.Len()+mr.charged > mr.cap {
		oldest := mr.lru.Remove(mr.lru.Front()).(keyedEntry)
		delete(mr.entries, oldest.key)
		// A charged entry's only key is its document key.
		if oldest.entry.charged {
			oldest.entry.charged = false
			mr.charged--
		}
	}
	mr.size.Set(int64(len(mr.entries)))
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

// resolveInline resolves an inline JSON document, keyed by its raw bytes: a
// hit skips decoding and validation, a miss decodes and validates the model
// and registers it under its document key.
func (mr *modelRegistry) resolveInline(doc json.RawMessage) (*modelEntry, error) {
	if len(doc) == 0 {
		// An omitted document reads as an explicit null: the empty system,
		// which fails validation.
		doc = json.RawMessage("null")
	}
	sum := sha256.Sum256(doc)
	docKey := "doc:" + hex.EncodeToString(sum[:])
	if e, ok := mr.get(docKey); ok {
		mr.hits.Inc()
		return e, nil
	}
	mr.misses.Inc()
	sys, err := cfsm.ReadSystem(doc)
	if err != nil {
		return nil, err
	}
	e, _ := mr.add(docKey, sys, "")
	return e, nil
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
	return s.models.resolveInline(doc)
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
	hash := compiled.ModelHash(sys)
	_, cached := s.models.add(hash, sys, hash)
	s.models.uploads.Inc()
	writeJSON(w, http.StatusOK, modelResponse{
		Hash:        hash,
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
