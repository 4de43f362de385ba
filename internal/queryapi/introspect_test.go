package queryapi

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"strudel/internal/qgen"
	"strudel/internal/repo"
)

// Introspection endpoints: generation-stamped JSON, ETag/304 semantics,
// and the planner's EXPLAIN over HTTP.

func getJSON(t *testing.T, url string, hdr map[string]string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: non-JSON body (%v): %s", url, err, body)
		}
	}
	return resp.StatusCode, resp.Header, m
}

func TestSchemaLabels(t *testing.T) {
	ix := repo.NewIndexed(qgen.Graph(5))
	_, ts := newQueryServer(t, NewSingle(ix), generous())

	code, hdr, m := getJSON(t, ts.URL+"/schema/labels", nil)
	if code != http.StatusOK {
		t.Fatalf("labels = %d", code)
	}
	if m["generation"].(float64) != 0 {
		t.Fatalf("generation = %v, want 0", m["generation"])
	}
	labels := m["labels"].([]any)
	byName := map[string]map[string]any{}
	for _, l := range labels {
		info := l.(map[string]any)
		byName[info["label"].(string)] = info
	}
	for _, want := range []string{"id", "year", "next"} {
		info, ok := byName[want]
		if !ok {
			t.Fatalf("label %q missing from /schema/labels (got %v)", want, byName)
		}
		if int(info["count"].(float64)) != ix.LabelCount(want) {
			t.Fatalf("label %q count = %v, index says %d", want, info["count"], ix.LabelCount(want))
		}
		// repo.Indexed carries attribute extents, so distinct source and
		// target counts must be real, not the -1 fallback.
		if info["sources"].(float64) < 1 || info["targets"].(float64) < 1 {
			t.Fatalf("label %q stats = %v; indexed source should report extents", want, info)
		}
	}

	// Conditional refetch: 304 with the same validator.
	etag := hdr.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, "\"sg0-") {
		t.Fatalf("labels ETag = %q, want a generation-scoped validator", etag)
	}
	code2, _, _ := getJSON(t, ts.URL+"/schema/labels", map[string]string{"If-None-Match": etag})
	if code2 != http.StatusNotModified {
		t.Fatalf("conditional labels = %d, want 304", code2)
	}
	// If-None-Match compares weakly (RFC 9110 §13.1.2): a W/ tag and a
	// tag inside a comma-separated list both match.
	for _, inm := range []string{"W/" + etag, `"other", ` + etag + `, "more"`} {
		if code, _, _ := getJSON(t, ts.URL+"/schema/labels", map[string]string{"If-None-Match": inm}); code != http.StatusNotModified {
			t.Fatalf("conditional labels with If-None-Match %s = %d, want 304", inm, code)
		}
	}
	// POST is rejected.
	code3, _, body := postJSON(t, ts.URL+"/schema/labels", map[string]any{}, nil)
	if code3 != http.StatusMethodNotAllowed {
		t.Fatalf("POST labels = %d (%s), want 405", code3, body)
	}
}

func TestSchemaCollectionsAndDataguide(t *testing.T) {
	ix := repo.NewIndexed(qgen.Graph(5))
	single := NewSingle(ix)
	_, ts := newQueryServer(t, single, generous())

	code, _, m := getJSON(t, ts.URL+"/schema/collections", nil)
	if code != http.StatusOK {
		t.Fatalf("collections = %d", code)
	}
	found := map[string]int{}
	for _, c := range m["collections"].([]any) {
		info := c.(map[string]any)
		found[info["name"].(string)] = int(info["size"].(float64))
	}
	if found["Items"] != ix.CollectionSize("Items") || found["Items"] == 0 {
		t.Fatalf("Items size = %d, index says %d", found["Items"], ix.CollectionSize("Items"))
	}

	code, _, m = getJSON(t, ts.URL+"/schema/dataguide?depth=2", nil)
	if code != http.StatusOK {
		t.Fatalf("dataguide = %d", code)
	}
	paths := m["paths"].([]any)
	if len(paths) == 0 {
		t.Fatalf("dataguide has no paths")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		seen[p.(string)] = true
		if strings.Count(p.(string), ".") > 1 {
			t.Fatalf("depth=2 dataguide contains deeper path %q", p)
		}
	}
	if !seen["id"] || !seen["year"] {
		t.Fatalf("dataguide misses root labels: %v", seen)
	}

	code, _, _ = getJSON(t, ts.URL+"/schema/dataguide?depth=99", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("depth=99 = %d, want 400", code)
	}

	// Reload invalidates the validator: same URL, new generation, 200.
	_, hdr, _ := getJSON(t, ts.URL+"/schema/dataguide?depth=2", nil)
	etag := hdr.Get("ETag")
	single.Swap(repo.NewIndexed(qgen.Graph(77)))
	code, hdr, m = getJSON(t, ts.URL+"/schema/dataguide?depth=2", map[string]string{"If-None-Match": etag})
	if code != http.StatusOK {
		t.Fatalf("post-reload conditional dataguide = %d, want 200 (validator is stale)", code)
	}
	if m["generation"].(float64) != 1 {
		t.Fatalf("post-reload generation = %v, want 1", m["generation"])
	}
}

func TestQueryExplain(t *testing.T) {
	svc, ts := newQueryServer(t, NewSingle(repo.NewIndexed(qgen.Graph(5))), generous())

	// A bare where clause is wrapped and explained.
	code, _, body := postJSON(t, ts.URL+"/query/explain",
		QueryRequest{Query: `where Items(x), x -> "year" -> y, y > 1993`}, nil)
	if code != http.StatusOK {
		t.Fatalf("explain = %d: %s", code, body)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("explain body: %v", err)
	}
	text, _ := m["explain"].(string)
	if !strings.Contains(text, "block") || len(text) < 20 {
		t.Fatalf("explain text looks empty: %q", text)
	}

	// A full query (with construction clauses) is accepted too.
	code, _, body = postJSON(t, ts.URL+"/query/explain",
		QueryRequest{Query: qgen.RichQuery(4)}, nil)
	if code != http.StatusOK {
		t.Fatalf("explain full query = %d: %s", code, body)
	}

	// Garbage is a typed parse error.
	code, _, e := queryError(t, ts, "/query/explain", QueryRequest{Query: "where -> ->"})
	if code != http.StatusBadRequest || e.Code != CodeParse {
		t.Fatalf("explain garbage = %d/%s, want 400/%s", code, e.Code, CodeParse)
	}

	if n := svc.Obs.Explains.Load(); n != 2 {
		t.Fatalf("explains counter = %d, want 2", n)
	}
}
