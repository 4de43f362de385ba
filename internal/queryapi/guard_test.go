package queryapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/qgen"
	"strudel/internal/repo"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

// Guard trips over HTTP: each evaluator resource guard (rows, NFA
// states, deadline) must surface as a typed error payload with the
// right status, Retry-After only where retrying can help, and an exact
// counter increment visible through the same registry JSON that
// /debug/vars serves in production.

// debugVars renders the registry the way cmd/strudel-serve exports it
// and returns the queryapi group.
func debugVars(t *testing.T, reg *obs.Registry) map[string]any {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(reg.String()))
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET vars: %v", err)
	}
	defer resp.Body.Close()
	var all map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("decode vars: %v", err)
	}
	q, ok := all["queryapi"]
	if !ok {
		t.Fatalf("registry JSON has no queryapi group: %v", all)
	}
	return q
}

func counterIs(t *testing.T, vars map[string]any, key string, want float64) {
	t.Helper()
	got, ok := vars[key].(float64)
	if !ok || got != want {
		t.Fatalf("queryapi.%s = %v, want %v", key, vars[key], want)
	}
}

// TestGuardMaxRows trips the row guard through the full fleet path: a
// cartesian square over Items with a per-request max_rows of 5.
func TestGuardMaxRows(t *testing.T) {
	fl := newFleetBackend(t, qgen.Graph(1), 2, 2)
	svc, ts := newQueryServer(t, fl, generous())
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	code, hdr, e := queryError(t, ts, "/query",
		QueryRequest{Query: "where Items(x), Items(y)", MaxRows: 5})
	if code != http.StatusUnprocessableEntity || e.Code != CodeMaxRows {
		t.Fatalf("row guard = %d/%s, want 422/%s", code, e.Code, CodeMaxRows)
	}
	if e.Limit != "rows" || e.Max != 5 || e.Used <= e.Max {
		t.Fatalf("row guard payload = limit %q used %d max %d; want rows/>5/5", e.Limit, e.Used, e.Max)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		t.Fatalf("422 carries Retry-After %q; retrying an over-limit query cannot help", ra)
	}
	vars := debugVars(t, reg)
	counterIs(t, vars, "guard_rows_trips", 1)
	counterIs(t, vars, "guard_nfa_trips", 0)
	counterIs(t, vars, "requests", 1)
}

// TestGuardNFAStates trips the path-automaton guard with a closure over
// the near-chain graph under a deliberately tiny state budget.
func TestGuardNFAStates(t *testing.T) {
	lim := generous()
	lim.MaxNFAStates = 4
	svc, ts := newQueryServer(t, NewSingle(repo.NewIndexed(qgen.Graph(2))), lim)
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	code, hdr, e := queryError(t, ts, "/query",
		QueryRequest{Query: `where Items(x), x -> ("next"|"ref")* -> v`})
	if code != http.StatusUnprocessableEntity || e.Code != CodeNFAStates {
		t.Fatalf("NFA guard = %d/%s, want 422/%s", code, e.Code, CodeNFAStates)
	}
	if e.Limit != "nfa-states" || e.Max != 4 {
		t.Fatalf("NFA guard payload = limit %q max %d; want nfa-states/4", e.Limit, e.Max)
	}
	if hdr.Get("Retry-After") != "" {
		t.Fatalf("422 carries Retry-After")
	}
	counterIs(t, debugVars(t, reg), "guard_nfa_trips", 1)
}

// TestGuardDeadline trips the evaluation deadline: a 4-way cartesian
// product over a ≥20-node Items extent cannot finish in 1ms, and unlike
// the other guards a deadline IS worth retrying — the payload must say
// so with Retry-After.
func TestGuardDeadline(t *testing.T) {
	var ix *repo.Indexed
	for seed := uint64(1); ; seed++ {
		ix = repo.NewIndexed(qgen.Graph(seed))
		if ix.CollectionSize("Items") >= 20 {
			break
		}
		if seed > 200 {
			t.Fatalf("no generated graph reaches 20 items; generator changed?")
		}
	}
	lim := generous()
	lim.MaxRows = 1 << 30 // the deadline must trip first, not the row guard
	svc, ts := newQueryServer(t, NewSingle(ix), lim)
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	code, hdr, e := queryError(t, ts, "/query", QueryRequest{
		Query:     "where Items(a), Items(b), Items(c), Items(d)",
		TimeoutMS: 1,
	})
	if code != http.StatusGatewayTimeout || e.Code != CodeDeadline {
		t.Fatalf("deadline guard = %d/%s, want 504/%s", code, e.Code, CodeDeadline)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("504 deadline carries no Retry-After; a timed-out query is retryable")
	}
	counterIs(t, debugVars(t, reg), "guard_deadline_trips", 1)
}

// blockingBackend parks every evaluation until release closes,
// signalling entered first — a way to hold the inflight gate with a
// real request.
type blockingBackend struct {
	Backend
	entered chan struct{}
	release chan struct{}
}

func (b blockingBackend) EvalOn(ctx context.Context, key string, fn func(context.Context, struql.Source, int64) (string, error)) (string, int64, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.EvalOn(ctx, key, fn)
}

// TestShedAtMaxInflight: with the gate full, requests are refused with
// a typed 503 + Retry-After before any body is read, and both the
// request and shed counters advance.
func TestShedAtMaxInflight(t *testing.T) {
	backend := blockingBackend{Backend: NewSingle(repo.NewIndexed(qgen.Graph(5))),
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc := &Service{
		Backend:     backend,
		Limits:      generous(),
		MaxInflight: 1,
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	// Occupy the only slot with a request parked in evaluation.
	occupant := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"where Items(x)"}`))
		if err != nil {
			occupant <- -1
			return
		}
		resp.Body.Close()
		occupant <- resp.StatusCode
	}()
	<-backend.entered
	code, hdr, e := queryError(t, ts, "/query", QueryRequest{Query: "where Items(x)"})
	if code != http.StatusServiceUnavailable || e.Code != CodeOverloaded {
		t.Fatalf("shed = %d/%s, want 503/%s", code, e.Code, CodeOverloaded)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("shed Retry-After = %q, want 1", hdr.Get("Retry-After"))
	}
	close(backend.release) // release; service must recover
	if code := <-occupant; code != http.StatusOK {
		t.Fatalf("occupying request finished with %d", code)
	}
	p := queryPage(t, ts, QueryRequest{Query: "where Items(x)"})
	if p.header.Kind != "header" {
		t.Fatalf("service did not recover after shed")
	}
	vars := debugVars(t, reg)
	counterIs(t, vars, "shed", 1)
	counterIs(t, vars, "requests", 3)
}

// TestTypedBadInput: the 400 taxonomy — parse errors carry the line,
// malformed envelopes and negative knobs are bad_request, wrong method
// is 405 — and every one increments its counter.
func TestTypedBadInput(t *testing.T) {
	svc, ts := newQueryServer(t, NewSingle(repo.NewIndexed(qgen.Graph(5))), generous())

	code, _, e := queryError(t, ts, "/query", QueryRequest{Query: "where Items(x), -> ->"})
	if code != http.StatusBadRequest || e.Code != CodeParse || e.Line <= 0 {
		t.Fatalf("parse error = %d/%s line %d, want 400/%s with a line", code, e.Code, e.Line, CodeParse)
	}
	// An unbound filter variable is an analysis error, still typed parse.
	code, _, e = queryError(t, ts, "/query", QueryRequest{Query: "where Items(x), y > 3"})
	if code != http.StatusBadRequest || e.Code != CodeParse {
		t.Fatalf("unbound variable = %d/%s, want 400/%s", code, e.Code, CodeParse)
	}
	code, _, e = queryError(t, ts, "/query", QueryRequest{Query: "where Items(x)", PageSize: -1})
	if code != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Fatalf("negative page_size = %d/%s, want 400/%s", code, e.Code, CodeBadRequest)
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatalf("GET /query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
	snap := svc.Obs.Snapshot()
	if snap["parse_errors"].(int64) != 2 || snap["bad_requests"].(int64) < 2 {
		t.Fatalf("error counters = parse %v, bad %v; want 2 and >=2",
			snap["parse_errors"], snap["bad_requests"])
	}
}

// panicSource panics whenever a query reads a collection — a stand-in
// for any bug on the evaluation path.
type panicSource struct {
	struql.Source
}

func (panicSource) Collection(string) []graph.OID { panic("secret internal detail") }

// TestEvalPanicIsSanitized500: an evaluation that panics inside a fleet
// replica attempt becomes a typed internal 500 without the panic text,
// the panic text reaches the server log, and the service keeps serving.
func TestEvalPanicIsSanitized500(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("1x%d", replicas), func(t *testing.T) {
			var logged bytes.Buffer
			prev := log.Writer()
			log.SetOutput(&logged)
			defer log.SetOutput(prev)
			f, err := fleet.New(fleet.Config{Schema: schema.Build(struql.MustParse(querySchema)), Replicas: replicas},
				panicSource{struql.NewGraphSource(qgen.Graph(5))})
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newQueryServer(t, f, generous())
			for i := 0; i < 2; i++ {
				code, _, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: "where Items(x)"}, nil)
				if code != http.StatusInternalServerError || !strings.Contains(body, `"code":"internal"`) {
					t.Fatalf("request %d = %d %s, want a typed 500", i, code, body)
				}
				if strings.Contains(body, "secret") {
					t.Fatalf("request %d: panic detail leaked to client: %s", i, body)
				}
			}
			if !strings.Contains(logged.String(), "secret internal detail") {
				t.Fatalf("panic detail missing from server log:\n%s", logged.String())
			}
		})
	}
}
