package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/server/api"
	"cfsmdiag/internal/testgen"
)

// Prefix is the route prefix the coordinator handler serves under.
const Prefix = "/v1/cluster"

// maxBodyBytes bounds request bodies on the standalone handler; the full
// server additionally applies its own global limit.
const maxBodyBytes = 16 << 20

// ResolveFunc resolves a model reference (CreateRequest.SpecRef) to a
// validated system — the server wires its model registry in here. A nil
// ResolveFunc rejects SpecRef creation.
type ResolveFunc func(ref string) (*cfsm.System, error)

// listResponse is the wire form of the sweep listing.
type listResponse struct {
	Sweeps []SweepStatus `json:"sweeps"`
	Total  int           `json:"total"`
}

// Handler serves the /v1/cluster API off the coordinator:
//
//	POST /v1/cluster/sweeps                        create a sweep
//	GET  /v1/cluster/sweeps?limit=&offset=         list sweeps (stable order)
//	GET  /v1/cluster/sweeps/{id}                   status (+ result when done)
//	GET  /v1/cluster/sweeps/{id}/ranges            per-range states
//	POST /v1/cluster/sweeps/{id}/lease             pull the next range lease
//	POST /v1/cluster/sweeps/{id}/ranges/{n}/result push a range's verdicts
//
// The handler is self-contained (mount it on any mux at Prefix) so worker
// and coordinator tests run without the full server.
func (c *Coordinator) Handler(resolve ResolveFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, Prefix+"/sweeps")
		if !ok {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
				fmt.Errorf("no route %s", r.URL.Path))
			return
		}
		parts := splitPath(rest)
		switch {
		case len(parts) == 0 && r.Method == http.MethodPost:
			c.handleCreate(w, r, resolve)
		case len(parts) == 0 && r.Method == http.MethodGet:
			c.handleList(w, r)
		case len(parts) == 1 && r.Method == http.MethodGet:
			c.handleGet(w, parts[0])
		case len(parts) == 2 && parts[1] == "lease" && r.Method == http.MethodPost:
			c.handleLease(w, r, parts[0])
		case len(parts) == 2 && parts[1] == "ranges" && r.Method == http.MethodGet:
			c.handleRanges(w, parts[0])
		case len(parts) == 4 && parts[1] == "ranges" && parts[3] == "result" && r.Method == http.MethodPost:
			c.handleReport(w, r, parts[0], parts[2])
		case len(parts) <= 1 || (len(parts) == 2 && (parts[1] == "lease" || parts[1] == "ranges")):
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				fmt.Errorf("method %s not allowed on %s", r.Method, r.URL.Path))
		default:
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
				fmt.Errorf("no route %s", r.URL.Path))
		}
	})
}

// splitPath splits "/a/b/c" into non-empty segments.
func splitPath(p string) []string {
	var out []string
	for _, seg := range strings.Split(p, "/") {
		if seg != "" {
			out = append(out, seg)
		}
	}
	return out
}

// decodeBody decodes a bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func (c *Coordinator) handleCreate(w http.ResponseWriter, r *http.Request, resolve ResolveFunc) {
	var req CreateRequest
	if err := decodeBody(w, r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	var spec *cfsm.System
	var err error
	switch {
	case req.SpecRef != "" && resolve == nil:
		api.WriteError(w, http.StatusUnprocessableEntity, api.CodeUnsupportedModel,
			fmt.Errorf("specRef requires a model registry; inline the spec"))
		return
	case req.SpecRef != "":
		spec, err = resolve(req.SpecRef)
	default:
		spec, err = cfsm.FromJSON(req.Spec)
	}
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, err)
		return
	}
	suite, err := cfsm.DecodeSuite(req.Suite)
	if err == nil {
		suite, _, err = testgen.SuiteOrTour(spec, suite)
	}
	var dup cfsm.DuplicateCaseError
	switch {
	case errors.As(err, &dup):
		api.WriteError(w, http.StatusUnprocessableEntity, api.CodeDuplicateTestCase, err)
		return
	case err != nil:
		api.WriteError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, err)
		return
	}
	st, err := c.Create(spec, suite, Options{CheckEquivalence: req.CheckEquivalence}, req.RangeSize)
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, err)
		return
	}
	api.WriteJSON(w, http.StatusCreated, st)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	page, err := api.ParsePage(r, 100, 1000)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	all := c.List()
	lo, hi := page.Window(len(all))
	api.WriteJSON(w, http.StatusOK, listResponse{Sweeps: all[lo:hi], Total: len(all)})
}

func (c *Coordinator) handleGet(w http.ResponseWriter, id string) {
	st, err := c.Get(id)
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleRanges(w http.ResponseWriter, id string) {
	ranges, err := c.Ranges(id)
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"ranges": ranges})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request, id string) {
	var req LeaseRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err)
			return
		}
	}
	lease, err := c.Lease(id, req.Worker)
	if errors.Is(err, ErrNoWork) {
		w.WriteHeader(http.StatusNoContent) // nothing pending; poll again later
		return
	}
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request, id, rangeSeg string) {
	rangeIdx, err := strconv.Atoi(rangeSeg)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("invalid range index %q", rangeSeg))
		return
	}
	var req ReportRequest
	if err := decodeBody(w, r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	resp, err := c.Report(id, rangeIdx, req.Token, DecodeReports(req.Reports))
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// writeClusterErr maps coordinator errors onto the HTTP envelope. Stale and
// duplicate pushes are conflicts, not failures: the worker logs and drops
// the range, because the verdicts are (or will be) merged from the lease
// currently holding the fencing token.
func writeClusterErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, err)
	case errors.Is(err, ErrStaleLease):
		api.WriteError(w, http.StatusConflict, api.CodeLeaseExpired, err)
	case errors.Is(err, ErrDuplicate):
		api.WriteError(w, http.StatusConflict, api.CodeConflict, err)
	default:
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err)
	}
}
