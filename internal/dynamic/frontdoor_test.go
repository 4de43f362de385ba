package dynamic_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// These tests serve the click-time renderer the way production does:
// through a 1×1 fleet behind fleet.Edge.

// newFrontDoor builds a 1×1 fleet over src and the edge in front of it;
// the edge's log goes to a discarded logger unless the test replaces it.
func newFrontDoor(t *testing.T, cfg fleet.Config, src struql.Source) (*fleet.Fleet, *fleet.Edge) {
	t.Helper()
	fl, err := fleet.New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	edge := fleet.NewEdge(fl)
	edge.Logger = log.New(io.Discard, "", 0)
	return fl, edge
}

func siteSchema(query string) *schema.Schema {
	return schema.Build(struql.MustParse(query))
}

func serve(t *testing.T, edge *fleet.Edge) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(edge.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// captureLog sends the process log to a buffer for the rest of the
// test: a panic inside a replica attempt is logged there.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return &buf
}

func TestServerServesPages(t *testing.T) {
	ts := template.NewSet()
	ts.MustAdd("RootPage", `<h1><SFMT title></h1><SFMT YearPage UL ORDER=ascend KEY=Year>`)
	ts.MustAdd("YearPage", `<h1>Year <SFMT Year></h1><SFMT Paper UL>`)
	ts.MustAdd("PaperPage", `<b><SFMT title></b>`)
	perFn := map[string]string{"RootPage": "RootPage", "YearPage": "YearPage", "PaperPage": "PaperPage"}
	_, edge := newFrontDoor(t, fleet.Config{Schema: siteSchema(dynamic.SiteQuery), Templates: ts, PerFn: perFn},
		struql.NewGraphSource(dynamic.TestData()))
	hs := serve(t, edge)

	body := get(t, hs.URL+"/")
	if !strings.Contains(body, "<h1>Home</h1>") {
		t.Errorf("root body:\n%s", body)
	}
	// Follow the first year-page link.
	idx := strings.Index(body, `/page/`)
	if idx < 0 {
		t.Fatalf("no page link in root:\n%s", body)
	}
	end := strings.IndexByte(body[idx:], '"')
	link := body[idx : idx+end]
	yearBody := get(t, hs.URL+link)
	if !strings.Contains(yearBody, "Year 1997") {
		t.Errorf("year body:\n%s", yearBody)
	}
	// Unknown page → 404.
	resp, err := http.Get(hs.URL + "/page/Nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestServerDefaultTemplate(t *testing.T) {
	_, edge := newFrontDoor(t, fleet.Config{Schema: siteSchema(dynamic.SiteQuery)}, struql.NewGraphSource(dynamic.TestData()))
	body := get(t, serve(t, edge).URL+"/")
	if !strings.Contains(body, "<dt>title</dt><dd>Home</dd>") {
		t.Errorf("default rendering:\n%s", body)
	}
}

func TestRequestDeadlineMapsTo504(t *testing.T) {
	fs := dynamic.NewFaultSource(struql.NewGraphSource(dynamic.SlowData(256)), time.Millisecond)
	_, edge := newFrontDoor(t, fleet.Config{Schema: siteSchema(dynamic.SlowQuery)}, fs)
	edge.RequestTimeout = 20 * time.Millisecond
	resp, err := http.Get(serve(t, edge).URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "request timed out") {
		t.Errorf("body = %q", body)
	}
}

func TestSheddingAndHealthzBypass(t *testing.T) {
	fs := dynamic.NewFaultSource(struql.NewGraphSource(dynamic.SlowData(64)), 2*time.Millisecond)
	_, edge := newFrontDoor(t, fleet.Config{Schema: siteSchema(dynamic.SlowQuery)}, fs)
	edge.MaxInflight = 1
	hs := serve(t, edge)

	// Occupy the one slot with a slow request...
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/")
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	for fs.Ops() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	// ...then excess page load is shed with 503 + Retry-After...
	resp, err := http.Get(hs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// ...but /healthz bypasses shedding so the saturated server can still
	// be probed.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"status"`) {
		t.Errorf("healthz status = %d, body %q", resp.StatusCode, body)
	}

	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("occupying request finished with %d", code)
	}
}

// panicSource panics on first use — a stand-in for any unexpected
// failure on the render path.
type panicSource struct {
	struql.Source
}

func (panicSource) Collection(string) []graph.OID { panic("secret internal detail") }

func TestPanicRecoverySanitizes500(t *testing.T) {
	logged := captureLog(t)
	_, edge := newFrontDoor(t, fleet.Config{Schema: siteSchema(dynamic.SiteQuery)},
		panicSource{struql.NewGraphSource(dynamic.TestData())})
	hs := serve(t, edge)
	// Twice: the panicking computation must not wedge the page for the
	// next request.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(hs.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("request %d: status = %d, want 500", i, resp.StatusCode)
		}
		if strings.Contains(body, "secret") {
			t.Errorf("request %d: panic detail leaked to client: %q", i, body)
		}
		if !strings.Contains(body, "internal server error") {
			t.Errorf("request %d: body = %q", i, body)
		}
	}
	if !strings.Contains(logged.String(), "secret internal detail") {
		t.Error("panic detail missing from server-side log")
	}
}

// failingCluster is a fleet whose page fetches fail with err.
type failingCluster struct {
	*fleet.Fleet
	err error
}

func (c failingCluster) Fetch(context.Context, int, string, dynamic.PageRef) (string, int64, error) {
	return "", 0, c.err
}

func TestFailRequestSanitizesErrors(t *testing.T) {
	fl, _ := newFrontDoor(t, fleet.Config{Schema: siteSchema(dynamic.SiteQuery)}, struql.NewGraphSource(dynamic.TestData()))
	var logged bytes.Buffer
	fetchFailing := func(err error) *httptest.ResponseRecorder {
		edge := fleet.NewEdge(failingCluster{fl, err})
		edge.Logger = log.New(&logged, "", 0)
		w := httptest.NewRecorder()
		edge.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/", nil))
		return w
	}

	if w := fetchFailing(fmt.Errorf("page: %w", context.DeadlineExceeded)); w.Code != http.StatusGatewayTimeout {
		t.Errorf("deadline: status = %d", w.Code)
	}

	// A client disconnect gets no response body: nobody is listening.
	if w := fetchFailing(fmt.Errorf("page: %w", context.Canceled)); w.Body.Len() != 0 {
		t.Errorf("cancel: wrote body %q", w.Body.String())
	}

	// Internal errors are logged in full but the client sees only a
	// generic message — error strings can embed data values and internals.
	w := fetchFailing(errors.New("confidential: /etc/site/pubs.ddl:17"))
	if w.Code != http.StatusInternalServerError {
		t.Errorf("internal: status = %d", w.Code)
	}
	if got := w.Body.String(); strings.Contains(got, "confidential") || !strings.Contains(got, "internal server error") {
		t.Errorf("internal: body = %q", got)
	}
	if !strings.Contains(logged.String(), "confidential: /etc/site/pubs.ddl:17") {
		t.Error("error detail missing from server-side log")
	}
}
