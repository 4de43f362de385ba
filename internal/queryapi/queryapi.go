// Package queryapi exposes StruQL as a data service: POST a where
// clause to /query and stream its binding relation back as NDJSON rows
// with opaque resumable cursors, server-side field projection, and
// per-request resource guards; introspect the graph's schema via
// /schema/* and the planner via /query/explain. Queries route through
// the serving fleet, so they inherit hot-reload generation snapshots,
// health-ordered replica routing, hedging, and failover exactly like
// page fetches — the graph behind the web site is queryable with the
// same operational guarantees as the web site itself.
package queryapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"strudel/internal/httpx"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// Backend is what the service evaluates against. *fleet.Fleet satisfies
// it; Single adapts a bare source for tests and embedding. The closure
// receives a generation-pinned source snapshot; its result must be a
// pure function of (closure, source, generation) — that determinism is
// what makes cursors, caching, and ETags sound.
type Backend interface {
	// Generation returns the current data generation.
	Generation() int64
	// EvalOn runs fn against a live replica of the shard owning key,
	// reporting the generation fn saw. Errors fn returns are
	// deterministic and must not be retried on siblings.
	EvalOn(ctx context.Context, key string, fn func(ctx context.Context, src struql.Source, gen int64) (string, error)) (string, int64, error)
}

// Limits bound what one request may cost. Zero fields take defaults.
type Limits struct {
	// MaxRows caps the binding-relation row guard; a request's max_rows
	// is clamped to it. Default 100000.
	MaxRows int
	// MaxNFAStates caps the per-start-node path-automaton guard.
	// Default 1 << 20.
	MaxNFAStates int
	// Timeout bounds one evaluation's wall clock; a request's
	// timeout_ms is clamped to it. Default 5s.
	Timeout time.Duration
	// DefaultPageSize and MaxPageSize bound page_size. Defaults 100 and
	// 10000.
	DefaultPageSize int
	MaxPageSize     int
	// MaxQueryBytes bounds the request body. Default 64 KiB.
	MaxQueryBytes int
	// MaxCached bounds the per-generation result cache (entries).
	// Default 128.
	MaxCached int
}

func (l Limits) withDefaults() Limits {
	if l.MaxRows <= 0 {
		l.MaxRows = 100000
	}
	if l.MaxNFAStates <= 0 {
		l.MaxNFAStates = 1 << 20
	}
	if l.Timeout <= 0 {
		l.Timeout = 5 * time.Second
	}
	if l.DefaultPageSize <= 0 {
		l.DefaultPageSize = 100
	}
	if l.MaxPageSize <= 0 {
		l.MaxPageSize = 10000
	}
	if l.MaxQueryBytes <= 0 {
		l.MaxQueryBytes = 64 << 10
	}
	if l.MaxCached <= 0 {
		l.MaxCached = 128
	}
	return l
}

// QueryRequest is the /query (and /query/explain) request envelope.
type QueryRequest struct {
	// Query is a StruQL where clause (the leading "where" keyword is
	// optional); /query/explain also accepts a full query.
	Query string `json:"query"`
	// Select projects the named variables, in order, server-side.
	// Empty keeps every bound variable in relation column order.
	Select []string `json:"select,omitempty"`
	// PageSize bounds rows per response (clamped to the server's
	// MaxPageSize; 0 means the server default).
	PageSize int `json:"page_size,omitempty"`
	// Cursor resumes a previous walk; it must come from the same
	// query+select, with the same max_rows.
	Cursor string `json:"cursor,omitempty"`
	// MaxRows tightens the row guard below the server cap (0 = cap).
	MaxRows int `json:"max_rows,omitempty"`
	// TimeoutMS tightens the evaluation deadline below the server cap.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// result is one evaluated, encoded, generation-pinned result set.
type result struct {
	gen  int64
	vars []string
	rows []string // pre-marshaled row lines, streamed verbatim
	used int64    // LRU tick
}

// Service is the query API: handlers, limits, and a small
// per-generation result cache. The cache is what lets a cursor walk
// complete on its original generation across a hot reload — and why
// eviction degrades to a typed generation_mismatch, never a torn mix of
// generations.
type Service struct {
	Backend Backend
	Limits  Limits
	Obs     *obs.QueryMetrics
	// MaxInflight bounds concurrently served requests; excess is shed
	// with 503 + Retry-After before any parsing. 0 means 64; negative
	// disables the gate.
	MaxInflight int

	lim   Limits
	mu    sync.Mutex
	cache map[string]*result
	memo  map[string]string // introspection payloads, keyed per generation
	tick  int64
}

// Handler returns the query API's HTTP handler behind the shared front
// door: Recover → Metrics → Shed → mux. Every request is counted, shed
// ones included, and a shed request is refused before any body is read
// — overload protection must be cheaper than the work it refuses. Mount
// it at the server root; it owns /query, /query/explain, and /schema/*.
func (s *Service) Handler() http.Handler {
	s.lim = s.Limits.withDefaults()
	if s.Obs == nil {
		s.Obs = &obs.QueryMetrics{}
	}
	if s.cache == nil {
		s.cache = map[string]*result{}
		s.memo = map[string]string{}
	}
	n := s.MaxInflight
	if n == 0 {
		n = 64
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/query/explain", s.handleExplain)
	mux.HandleFunc("/schema/labels", s.handleLabels)
	mux.HandleFunc("/schema/collections", s.handleCollections)
	mux.HandleFunc("/schema/dataguide", s.handleDataguide)
	// The recovered-panic refusal is the backstop, not the error path:
	// the fuzz harness asserts it never fires for arbitrary input.
	return httpx.Chain(mux,
		httpx.Recover(log.Printf, func(w http.ResponseWriter, r *http.Request) {
			s.Obs.Panics.Inc()
			writeError(w, &Error{Code: CodeInternal, Message: "internal error"})
		}),
		httpx.Metrics(&s.Obs.Requests, nil),
		httpx.Shed(n, func(w http.ResponseWriter, r *http.Request) {
			s.Obs.Shed.Inc()
			writeError(w, &Error{Code: CodeOverloaded, RetryAfter: httpx.RetryAfter(0),
				Message: "query API at max inflight requests"})
		}))
}

// readRequest decodes and bounds the request envelope.
func (s *Service) readRequest(r *http.Request) (*QueryRequest, *Error) {
	if r.Method != http.MethodPost {
		return nil, &Error{Code: CodeBadRequest, status: http.StatusMethodNotAllowed,
			Message: "use POST with a JSON body"}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(s.lim.MaxQueryBytes)+1))
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: "unreadable request body"}
	}
	if len(body) > s.lim.MaxQueryBytes {
		return nil, &Error{Code: CodeBadRequest,
			Message: fmt.Sprintf("request body exceeds %d bytes", s.lim.MaxQueryBytes)}
	}
	var req QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: "request body is not valid JSON"}
	}
	if strings.TrimSpace(req.Query) == "" {
		return nil, &Error{Code: CodeBadRequest, Message: "missing query"}
	}
	return &req, nil
}

// effective clamps per-request knobs into the server's limits.
func (s *Service) effective(req *QueryRequest) (pageSize, maxRows int, timeout time.Duration, aerr *Error) {
	pageSize = req.PageSize
	switch {
	case pageSize < 0:
		return 0, 0, 0, &Error{Code: CodeBadRequest, Message: "page_size must be non-negative"}
	case pageSize == 0:
		pageSize = s.lim.DefaultPageSize
	case pageSize > s.lim.MaxPageSize:
		pageSize = s.lim.MaxPageSize
	}
	maxRows = req.MaxRows
	switch {
	case maxRows < 0:
		return 0, 0, 0, &Error{Code: CodeBadRequest, Message: "max_rows must be non-negative"}
	case maxRows == 0, maxRows > s.lim.MaxRows:
		maxRows = s.lim.MaxRows
	}
	timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	if req.TimeoutMS < 0 {
		return 0, 0, 0, &Error{Code: CodeBadRequest, Message: "timeout_ms must be non-negative"}
	}
	if timeout == 0 || timeout > s.lim.Timeout {
		timeout = s.lim.Timeout
	}
	return pageSize, maxRows, timeout, nil
}

// headerMsg is the first streamed NDJSON line of a /query response.
type headerMsg struct {
	Kind       string   `json:"kind"`
	Generation int64    `json:"generation"`
	Vars       []string `json:"vars"`
	TotalRows  int      `json:"total_rows"`
	Offset     int      `json:"offset"`
}

// endMsg is the last streamed line: the page's row count and how to
// continue.
type endMsg struct {
	Kind       string `json:"kind"`
	Rows       int    `json:"rows"`
	NextCursor string `json:"next_cursor,omitempty"`
	Done       bool   `json:"done"`
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, aerr := s.readRequest(r)
	if aerr != nil {
		s.Obs.BadRequests.Inc()
		writeError(w, aerr)
		return
	}
	pageSize, maxRows, timeout, aerr := s.effective(req)
	if aerr != nil {
		s.Obs.BadRequests.Inc()
		writeError(w, aerr)
		return
	}
	conds, perr := struql.ParseWhere(req.Query)
	if perr != nil {
		s.Obs.ParseErrors.Inc()
		writeError(w, classify(perr))
		return
	}
	qh := queryHash(req.Query, req.Select)
	offset, wantGen := 0, int64(-1)
	if req.Cursor != "" {
		c, cerr := decodeCursor(req.Cursor)
		if cerr != nil {
			s.Obs.BadCursors.Inc()
			writeError(w, cerr)
			return
		}
		if c.qhash != qh {
			s.Obs.BadCursors.Inc()
			writeError(w, &Error{Code: CodeBadCursor,
				Message: "cursor was minted for a different query or selector"})
			return
		}
		offset, wantGen = c.offset, c.gen
		s.Obs.CursorResumes.Inc()
	}

	// Conditional fast path: the ETag is a pure function of
	// (generation, query hash, offset, page size) — determinism means a
	// matching validator proves the client's copy is current, with no
	// evaluation at all. Cursorless requests validate against the
	// current generation; cursor resumes against their pinned one.
	checkGen := wantGen
	if checkGen < 0 {
		checkGen = s.Backend.Generation()
	}
	etag := pageETag(checkGen, qh, offset, pageSize)
	if inm := r.Header.Get("If-None-Match"); inm != "" && httpx.ETagMatch(inm, etag) {
		s.Obs.NotModified.Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	res, err := s.resultFor(r, conds, req.Select, qh, wantGen, maxRows, timeout)
	if err != nil {
		e := classify(err)
		if e == nil {
			return // client gone
		}
		switch e.Code {
		case CodeParse:
			s.Obs.ParseErrors.Inc()
		case CodeUnknownSelect, CodeBadRequest:
			s.Obs.BadRequests.Inc()
		case CodeGenerationMismatch:
			s.Obs.GenerationMismatches.Inc()
		case CodeMaxRows:
			s.Obs.GuardRowTrips.Inc()
		case CodeNFAStates:
			s.Obs.GuardNFATrips.Inc()
		case CodeDeadline:
			s.Obs.GuardDeadlineTrips.Inc()
		case CodeUnavailable:
			s.Obs.Unavailable.Inc()
		}
		writeError(w, e)
		return
	}

	page := res.rows[min(offset, len(res.rows)):]
	if len(page) > pageSize {
		page = page[:pageSize]
	}
	next, done := "", true
	if offset+len(page) < len(res.rows) {
		next = cursor{gen: res.gen, qhash: qh, offset: offset + len(page)}.encode()
		done = false
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("ETag", pageETag(res.gen, qh, offset, pageSize))
	w.Header().Set("X-Strudel-Generation", fmt.Sprintf("%d", res.gen))
	enc := json.NewEncoder(w)
	enc.Encode(headerMsg{Kind: "header", Generation: res.gen, Vars: res.vars,
		TotalRows: len(res.rows), Offset: offset})
	flusher, _ := w.(http.Flusher)
	for i, line := range page {
		io.WriteString(w, line)
		io.WriteString(w, "\n")
		if flusher != nil && (i+1)%512 == 0 {
			flusher.Flush()
		}
	}
	enc.Encode(endMsg{Kind: "end", Rows: len(page), NextCursor: next, Done: done})
	s.Obs.PagesServed.Inc()
	s.Obs.RowsStreamed.Add(int64(len(page)))
	s.Obs.QueryNanos.Observe(time.Since(start).Nanoseconds())
}

// resultFor returns the evaluated, encoded result the request names:
// from the per-generation cache when possible, else one fleet-routed
// evaluation. wantGen < 0 means "the current generation"; wantGen >= 0
// (a cursor resume) means "exactly that generation" — served from
// cache if the reload already happened, re-evaluated if the replica
// still holds that generation, and a typed generation_mismatch
// otherwise.
func (s *Service) resultFor(r *http.Request, conds []struql.Cond, sel []string,
	qh uint64, wantGen int64, maxRows int, timeout time.Duration) (*result, error) {

	lookupGen := wantGen
	if lookupGen < 0 {
		lookupGen = s.Backend.Generation()
	}
	key := fmt.Sprintf("g%d.h%016x.m%d", lookupGen, qh, maxRows)
	s.mu.Lock()
	if res, ok := s.cache[key]; ok {
		s.tick++
		res.used = s.tick
		s.mu.Unlock()
		s.Obs.ResultCacheHits.Inc()
		return res, nil
	}
	s.mu.Unlock()
	s.Obs.ResultCacheMisses.Inc()
	s.Obs.Evals.Inc()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	payload, gen, err := s.Backend.EvalOn(ctx, fmt.Sprintf("query:%016x", qh),
		func(ctx context.Context, src struql.Source, gen int64) (string, error) {
			if wantGen >= 0 && gen != wantGen {
				return "", &Error{Code: CodeGenerationMismatch,
					Generation: gen, WantGeneration: wantGen,
					Message: "cursor generation was reloaded away; restart the walk"}
			}
			opts := &struql.Options{
				MaxRows:      maxRows,
				MaxNFAStates: s.lim.MaxNFAStates,
				Deadline:     time.Now().Add(timeout),
			}
			b, err := struql.EvalWhereCtx(ctx, conds, src, nil, opts)
			if err != nil {
				return "", err
			}
			return encodeResult(b, sel)
		})
	if err != nil {
		return nil, err
	}
	res, err := parseResult(payload, gen)
	if err != nil {
		return nil, err
	}
	s.store(fmt.Sprintf("g%d.h%016x.m%d", gen, qh, maxRows), res)
	return res, nil
}

// store inserts into the result cache, evicting least-recently-used
// entries beyond the bound.
func (s *Service) store(key string, res *result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	res.used = s.tick
	s.cache[key] = res
	for len(s.cache) > s.lim.MaxCached {
		oldestK, oldest := "", int64(1<<62)
		for k, r := range s.cache {
			if r.used < oldest {
				oldestK, oldest = k, r.used
			}
		}
		delete(s.cache, oldestK)
	}
}

// pageETag is the validator for one exact response: generation-scoped
// like the page edge's ETags, plus the query/page coordinates.
func pageETag(gen int64, qh uint64, offset, pageSize int) string {
	return fmt.Sprintf("\"qg%d-%016x-%d-%d\"", gen, qh, offset, pageSize)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
