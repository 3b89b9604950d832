// Package api holds the wire conventions shared by every HTTP surface of
// the diagnosis service: the single error envelope, its machine-readable
// codes, the JSON response writer, and the pagination query contract of the
// list endpoints.
//
// The job surface (/v1/jobs), the cluster surface (/v1/cluster) and the
// core diagnosis routes all answer errors through WriteError, so clients
// can parse one envelope everywhere:
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Error codes of the v1 envelope. Every surface shares this vocabulary.
const (
	CodeBadRequest       = "bad_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodePayloadTooLarge  = "payload_too_large"
	CodeSuiteTooLarge    = "suite_too_large"
	CodeUnprocessable    = "unprocessable"
	CodeUnsupportedModel = "unsupported_model_format"
	CodeNotFound         = "not_found"
	CodeNotImplemented   = "not_implemented"
	CodeTimeout          = "timeout"
	CodeCanceled         = "canceled"
	CodeInternal         = "internal"
	CodeQueueFull        = "queue_full"
	// CodeTenantRateLimited: a per-tenant admission bucket rejected the
	// submission — distinct from queue_full so clients can tell "you,
	// specifically, are flooding" from "the shared queue is saturated".
	CodeTenantRateLimited = "tenant_rate_limited"
	CodeConflict          = "conflict"
	CodeUnavailable       = "unavailable"
	CodeLeaseExpired      = "lease_expired"
	// CodeInvalidPortMap: the distributed-observation port map of a diagnose
	// or analyze request failed validation (unknown machine, unassigned
	// machine, empty observer name).
	CodeInvalidPortMap = "invalid_port_map"
	// CodeDuplicateTestCase: a submitted suite names two test cases
	// identically; cfsm.DecodeSuite's doc comment gives the reason such a
	// suite is rejected at decode time.
	CodeDuplicateTestCase = "duplicate_test_case"
)

// ErrorDetail is the envelope's body.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform error response.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// RetryAfterSeconds converts a wait duration into the integer seconds of a
// Retry-After header: rounded up, and never below 1. Truncating instead
// (int(d/time.Second)) turns every sub-second wait into "Retry-After: 0",
// which well-behaved clients read as "retry immediately" — exactly the
// stampede the header exists to prevent.
func RetryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	return secs
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the error envelope with the given status and code.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// Page is the decoded pagination window of a list request.
type Page struct {
	// Limit is the maximum number of items to return; always positive after
	// ParsePage applies the default and the cap.
	Limit int
	// Offset is the number of items to skip from the start of the stably
	// ordered collection.
	Offset int
}

// ParsePage decodes the ?limit= and ?offset= query parameters. A missing
// limit selects def; limits above max are clamped to max; zero/negative
// values and non-numbers are rejected.
func ParsePage(r *http.Request, def, max int) (Page, error) {
	p := Page{Limit: def}
	q := r.URL.Query()
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return p, fmt.Errorf("limit %q must be a positive integer", s)
		}
		p.Limit = n
	}
	if p.Limit > max {
		p.Limit = max
	}
	if s := q.Get("offset"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return p, fmt.Errorf("offset %q must be a non-negative integer", s)
		}
		p.Offset = n
	}
	return p, nil
}

// Window applies the page to a collection of length n, returning the
// [lo, hi) slice bounds.
func (p Page) Window(n int) (lo, hi int) {
	lo = p.Offset
	if lo > n {
		lo = n
	}
	hi = lo + p.Limit
	if hi > n {
		hi = n
	}
	return lo, hi
}
