package queryapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"strudel/internal/qgen"
)

// The network-visible differential oracle: every randomized where
// clause fired at the HTTP endpoint must stream rows byte-identical to
// an in-process EvalWhere over the same graph — across shard counts,
// replica counts, cache states (cold and warm), page sizes, and
// selectors. The fleet path crosses replication (plain graph → indexed
// → frozen snapshot), routing, hedging, the result cache, and the
// cursor pager; the reference crosses none of them. Byte equality
// proves the whole stack preserves the evaluator's deterministic row
// order and encoding.

func TestHTTPDifferentialOracle(t *testing.T) {
	pairs := httpOraclePairs
	if testing.Short() {
		pairs = 120
	}
	configs := []struct{ shards, replicas int }{{1, 1}, {2, 2}}
	const nGraphs = 12
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("shards=%d,replicas=%d", cfg.shards, cfg.replicas), func(t *testing.T) {
			sites := make([]*oracleSite, nGraphs)
			for i := 0; i < pairs; i++ {
				gi := i % nGraphs
				if sites[gi] == nil {
					sites[gi] = newOracleSite(t, uint64(gi)*2654435761+uint64(ci)+1, cfg.shards, cfg.replicas)
				}
				site := sites[gi]
				q := qgen.WhereClause(uint64(ci)*1000003 + uint64(i)*7919 + 11)
				var sel []string
				if i%3 == 1 {
					sel = []string{"x"} // the generator always binds x
				}
				wantVars, wantRows := inProcessRows(t, site.ix, q, sel)
				pageSize := [3]int{0, 7, 1000}[i%3]
				if pageSize != 0 && len(wantRows)/pageSize > 200 {
					pageSize = 0 // bound the request count on huge results
				}
				req := QueryRequest{Query: q, Select: sel, PageSize: pageSize}
				for _, state := range []string{"cold", "warm"} {
					hdr, rows := walkQuery(t, site.ts, req)
					if !sameRows(hdr.Vars, wantVars) {
						t.Fatalf("[%s] vars mismatch: got %v want %v\nquery:\n%s",
							state, hdr.Vars, wantVars, q)
					}
					if hdr.TotalRows != len(wantRows) {
						t.Fatalf("[%s] total_rows = %d, reference has %d\nquery:\n%s",
							state, hdr.TotalRows, len(wantRows), q)
					}
					if !sameRows(rows, wantRows) {
						t.Fatalf("[%s] HTTP rows differ from in-process evaluation (%d vs %d rows)\nquery:\n%s",
							state, len(rows), len(wantRows), q)
					}
				}
			}
		})
	}
}

// rawWalk is walkQuery without testing.T: errors return instead of
// failing, so racing client goroutines can use it safely.
func rawWalk(baseURL string, req QueryRequest) ([]string, int64, error) {
	req.Cursor = ""
	var all []string
	var gen int64 = -1
	for hop := 0; ; hop++ {
		buf, err := json.Marshal(req)
		if err != nil {
			return nil, 0, err
		}
		resp, err := http.Post(baseURL+"/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			return nil, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
		if len(lines) < 2 {
			return nil, 0, fmt.Errorf("short NDJSON response: %s", body)
		}
		var hdr headerMsg
		if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
			return nil, 0, fmt.Errorf("bad header line: %w", err)
		}
		if gen < 0 {
			gen = hdr.Generation
		} else if hdr.Generation != gen {
			return nil, 0, fmt.Errorf("generation changed mid-walk: %d then %d", gen, hdr.Generation)
		}
		var end endMsg
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
			return nil, 0, fmt.Errorf("bad end line: %w", err)
		}
		all = append(all, lines[1:len(lines)-1]...)
		if end.Done {
			return all, gen, nil
		}
		if end.NextCursor == "" || hop > 100000 {
			return nil, 0, fmt.Errorf("walk stuck at hop %d", hop)
		}
		req.Cursor = end.NextCursor
	}
}

// TestHTTPOracleRaced fires the oracle from concurrent clients sharing
// one service: the result cache, LRU ticks, and cursor pager race while
// every answer must still match the reference. Run under -race, this is
// the network-level data-race check the issue asks for; without -race
// it still shakes out lost-update bugs in the cache.
func TestHTTPOracleRaced(t *testing.T) {
	site := newOracleSite(t, 99, 2, 2)
	const workers = 8
	per := httpRacedQueries / workers
	if per == 0 {
		per = 1
	}

	type expect struct {
		query string
		rows  []string
	}
	exps := make([]expect, per)
	for j := range exps {
		q := qgen.WhereClause(uint64(j)*104729 + 3)
		_, rows := inProcessRows(t, site.ix, q, nil)
		exps[j] = expect{query: q, rows: rows}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				e := exps[(w*13+j)%per] // workers collide on keys in different orders
				rows, _, err := rawWalk(site.ts.URL, QueryRequest{Query: e.query, PageSize: 1 + (w+j)%9})
				if err == nil && !sameRows(rows, e.rows) {
					err = fmt.Errorf("raced walk diverged from reference (%d vs %d rows)\nquery:\n%s",
						len(rows), len(e.rows), e.query)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("worker %d: %w", w, err)
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

// TestHTTPOracleConditionalRequests closes the cache-state loop: a page
// re-requested with its own ETag must come back 304 with zero rows
// re-streamed, and a page requested after a miss must carry the same
// validator it advertised.
func TestHTTPOracleConditionalRequests(t *testing.T) {
	site := newOracleSite(t, 7, 1, 1)
	q := qgen.WhereClause(17)
	req := QueryRequest{Query: q, PageSize: 5}

	code, hdr, body := postJSON(t, site.ts.URL+"/query", req, nil)
	if code != http.StatusOK {
		t.Fatalf("first fetch = %d: %s", code, body)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatalf("no ETag on a /query response")
	}
	code2, hdr2, body2 := postJSON(t, site.ts.URL+"/query", req, map[string]string{"If-None-Match": etag})
	if code2 != http.StatusNotModified {
		t.Fatalf("conditional refetch = %d, want 304: %s", code2, body2)
	}
	if body2 != "" {
		t.Fatalf("304 carried a body: %q", body2)
	}
	if hdr2.Get("ETag") != etag {
		t.Fatalf("304 ETag %q != original %q", hdr2.Get("ETag"), etag)
	}
	// Weak comparison: a W/-prefixed copy of the validator, or the
	// validator inside a list, proves the client's copy current too.
	for _, inm := range []string{"W/" + etag, `"qg999-0-0-5", ` + etag} {
		if code, _, body := postJSON(t, site.ts.URL+"/query", req, map[string]string{"If-None-Match": inm}); code != http.StatusNotModified {
			t.Fatalf("conditional refetch with If-None-Match %s = %d, want 304: %s", inm, code, body)
		}
	}
	// A stale validator must not short-circuit.
	code3, _, body3 := postJSON(t, site.ts.URL+"/query", req, map[string]string{"If-None-Match": `"qg999-0-0-5"`})
	if code3 != http.StatusOK {
		t.Fatalf("mismatched validator = %d, want 200: %s", code3, body3)
	}
	if body3 == "" || parsePage(t, body3).header.Kind != "header" {
		t.Fatalf("full response expected after validator mismatch")
	}
}
