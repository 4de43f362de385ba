package queryapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"strudel/internal/fleet"
	"strudel/internal/httpx"
	"strudel/internal/struql"
)

// Error codes — the complete taxonomy (documented in docs/QUERYAPI.md).
// Every non-200 response from the query API carries exactly one of
// these in a {"error":{...}} envelope, so clients and tests can switch
// on the code instead of parsing prose.
const (
	// CodeBadRequest: malformed request envelope — unreadable JSON,
	// missing query, oversized body, unsupported method.
	CodeBadRequest = "bad_request"
	// CodeParse: the query text failed StruQL parsing or analysis;
	// Line carries the source line.
	CodeParse = "parse_error"
	// CodeBadCursor: the cursor was undecodable, corrupted, or minted
	// for a different query/selector.
	CodeBadCursor = "bad_cursor"
	// CodeUnknownSelect: a selector names a variable the query does not
	// bind.
	CodeUnknownSelect = "unknown_select"
	// CodeGenerationMismatch: a cursor resume pinned to a generation
	// that has been reloaded away and whose result is no longer cached;
	// the walk must restart from the first page (410 Gone).
	CodeGenerationMismatch = "generation_mismatch"
	// CodeMaxRows / CodeNFAStates: the row or NFA-state guard tripped;
	// the query is too expensive at the granted limits (422) and
	// retrying unchanged will trip again, so no Retry-After.
	CodeMaxRows   = "max_rows"
	CodeNFAStates = "nfa_states"
	// CodeDeadline: evaluation exceeded its wall-clock bound (504); a
	// retry may succeed on a less loaded replica, so Retry-After: 1.
	CodeDeadline = "deadline"
	// CodeOverloaded: refused at the inflight gate before any
	// evaluation (503 + Retry-After).
	CodeOverloaded = "overloaded"
	// CodeUnavailable: every replica of the routed shard was down
	// (503 + Retry-After from the fleet's recovery hint).
	CodeUnavailable = "unavailable"
	// CodeInternal: a recovered panic or unclassified failure (500).
	CodeInternal = "internal"
)

// Error is the query API's typed error payload. It implements error so
// evaluation closures can return one through the fleet (typed errors
// are deterministic, hence never failed over to a sibling replica).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Line is the source line of a parse error.
	Line int `json:"line,omitempty"`
	// Limit/Used/Max mirror struql.ResourceExhausted for guard trips.
	Limit string `json:"limit,omitempty"`
	Used  int    `json:"used,omitempty"`
	Max   int    `json:"max,omitempty"`
	// Generation is the server's current generation and WantGeneration
	// the cursor's, on a generation mismatch.
	Generation     int64 `json:"generation,omitempty"`
	WantGeneration int64 `json:"want_generation,omitempty"`
	// RetryAfter, in seconds, mirrors the Retry-After header when the
	// error is worth retrying.
	RetryAfter int `json:"retry_after,omitempty"`

	status int
}

func (e *Error) Error() string { return fmt.Sprintf("queryapi: %s: %s", e.Code, e.Message) }

// HTTPStatus returns the response status the code maps to.
func (e *Error) HTTPStatus() int {
	if e.status != 0 {
		return e.status
	}
	switch e.Code {
	case CodeBadRequest, CodeParse, CodeBadCursor, CodeUnknownSelect:
		return http.StatusBadRequest
	case CodeGenerationMismatch:
		return http.StatusGone
	case CodeMaxRows, CodeNFAStates:
		return http.StatusUnprocessableEntity
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeOverloaded, CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// classify maps any evaluation-path error to a typed *Error. Typed
// errors pass through; struql and fleet errors get their taxonomy slot;
// everything else is internal. It returns nil for context.Canceled —
// the client is gone and no response should be written.
func classify(err error) *Error {
	var qe *Error
	if errors.As(err, &qe) {
		return qe
	}
	var pe *struql.ParseError
	if errors.As(err, &pe) {
		return &Error{Code: CodeParse, Message: pe.Msg, Line: pe.Line}
	}
	var re *struql.ResourceExhausted
	if errors.As(err, &re) {
		switch re.Limit {
		case struql.LimitRows:
			return &Error{Code: CodeMaxRows, Limit: re.Limit, Used: re.Used, Max: re.Max,
				Message: "row guard tripped: narrow the query or raise max_rows"}
		case struql.LimitNFAStates:
			return &Error{Code: CodeNFAStates, Limit: re.Limit, Used: re.Used, Max: re.Max,
				Message: "path-automaton guard tripped: simplify the regular path expression"}
		default:
			return &Error{Code: CodeDeadline, Limit: re.Limit, RetryAfter: 1,
				Message: "evaluation exceeded its deadline"}
		}
	}
	var down fleet.ErrShardDown
	if errors.As(err, &down) {
		return &Error{Code: CodeUnavailable, RetryAfter: httpx.RetryAfter(down.RetryAfter),
			Message: fmt.Sprintf("shard %d has no live replica", down.Shard)}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Code: CodeDeadline, RetryAfter: 1,
			Message: "evaluation exceeded its deadline"}
	}
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return &Error{Code: CodeInternal, Message: "internal error"}
}

// writeError renders a typed error as its {"error":{...}} envelope,
// setting Retry-After when the error carries a hint.
func writeError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.WriteHeader(e.HTTPStatus())
	json.NewEncoder(w).Encode(map[string]*Error{"error": e})
}
