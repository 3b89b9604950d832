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
	"strings"
	"sync"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/obs"
)

// The content-addressed model registry. Every endpoint that accepts a system
// resolves it through the registry, so a model is decoded, validated and
// compiled once per content: an entry holds the validated *cfsm.System and,
// compiled on first use as a specification, its *compiled.Program. Both are
// immutable, so one entry is shared across concurrent requests and job
// workers; each diagnosis builds its own single-goroutine compiled.Engine
// over the shared program.
//
// Two key namespaces share the cache, both naming entries:
//
//   - "<hex hash>": the canonical content hash (compiled.ModelHash), set on
//     upload and after any successful inline resolution. Requests reference
//     it via the *Ref request fields and GET /v1/models/{hash}.
//   - "doc:<hex hash>": the SHA-256 of an inline document's raw bytes, so a
//     repeated inline submission skips decoding and validation altogether.
//     Byte-different spellings of one model resolve to the entry already
//     held under its canonical hash and share its compiled program.
//
// The cache is bounded by key count and evicts the least recently used key.

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
}

// program returns the entry's compiled program, compiling it on first use.
// Only specifications call it, so IUT-only entries never compile.
func (e *modelEntry) program() *compiled.Program {
	e.compileOnce.Do(func() {
		// Compile fails only on a nil system, and a registered one never is.
		e.prog, _ = compiled.Compile(e.sys)
	})
	return e.prog
}

// engineOpts runs a diagnosis of the entry's system on a fresh engine over
// the shared program.
func (e *modelEntry) engineOpts() []core.Option {
	// EngineFor fails only on a nil program, and program() never returns one.
	eng, _ := compiled.EngineFor(e.program())
	return []core.Option{core.WithEngine(eng)}
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
	if h, ok := mr.entries[e.hash]; ok && h.Value.(keyedEntry).entry == e {
		mr.lru.MoveToBack(h)
	}
	mr.lru.MoveToBack(el)
	return e, true
}

// put registers sys under its canonical hash and the extra keys, evicting
// least recently used keys beyond the cap. A model already held under hash
// keeps its entry, so every key of one content shares one compile. It
// returns the entry and whether every key was already present.
func (mr *modelRegistry) put(sys *cfsm.System, hash string, keys ...string) (*modelEntry, bool) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	var e *modelEntry
	if el, ok := mr.entries[hash]; ok {
		e = el.Value.(keyedEntry).entry
	} else {
		e = &modelEntry{sys: sys, hash: hash}
	}
	all := true
	for _, key := range append([]string{hash}, keys...) {
		if el, ok := mr.entries[key]; ok {
			mr.lru.MoveToBack(el)
			continue
		}
		all = false
		mr.entries[key] = mr.lru.PushBack(keyedEntry{key: key, entry: e})
	}
	for mr.lru.Len() > mr.cap {
		oldest := mr.lru.Remove(mr.lru.Front()).(keyedEntry)
		delete(mr.entries, oldest.key)
	}
	mr.size.Set(int64(len(mr.entries)))
	return e, all
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

// modelDecodeError reports an inline model document that does not decode
// strictly (malformed JSON, an unknown field, a wrong type): a malformed
// request, answered 400 like any other body that fails to decode.
type modelDecodeError struct{ err error }

func (e modelDecodeError) Error() string { return e.err.Error() }
func (e modelDecodeError) Unwrap() error { return e.err }

// decodeModel strictly decodes and validates a JSON system document.
func decodeModel(doc []byte) (*cfsm.System, error) {
	var sj cfsm.SystemJSON
	if err := strictUnmarshal(doc, &sj); err != nil {
		return nil, modelDecodeError{err: err}
	}
	return cfsm.FromJSON(sj)
}

// resolveInline resolves an inline JSON document, keyed by its raw bytes: a
// hit skips decoding and validation, a miss decodes, validates and registers
// the model under both its document key and its canonical hash.
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
	sys, err := decodeModel(doc)
	if err != nil {
		return nil, err
	}
	e, _ := mr.put(sys, compiled.ModelHash(sys), docKey)
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
	} else if sys, err = decodeModel(data); err != nil {
		s.models.rejects.Inc()
		writePipelineErr(w, err)
		return
	}
	hash := compiled.ModelHash(sys)
	_, cached := s.models.put(sys, hash)
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
