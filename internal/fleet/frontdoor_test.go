package fleet

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// panicSource panics whenever a query reads a collection — a stand-in
// for any bug on the render path.
type panicSource struct {
	struql.Source
}

func (panicSource) Collection(string) []graph.OID { panic("secret internal detail") }

// captureLog sends the process log to a buffer for the rest of the
// test; replica attempts log recovered panics there.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return &buf
}

// TestEdgeRenderPanicIsSanitized500: a render that panics inside a
// replica attempt goroutine — out of reach of any handler's recovery —
// becomes a failed attempt. The client gets a sanitized 500, the panic
// and its stack go to the server log, the replica's breaker counts the
// failure, and the process survives to serve the next request.
func TestEdgeRenderPanicIsSanitized500(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("1x%d", replicas), func(t *testing.T) {
			logged := captureLog(t)
			m := &obs.FleetMetrics{}
			f, err := New(Config{Schema: buildSchema(t), Replicas: replicas, Obs: m},
				panicSource{struql.NewGraphSource(genSiteData(1))})
			if err != nil {
				t.Fatal(err)
			}
			e := quiet(NewEdge(f))
			e.Obs = m
			ts := httptest.NewServer(e.Handler())
			defer ts.Close()

			for i := 1; i <= 2; i++ {
				status, _, body := get(t, ts, "/", nil)
				if status != http.StatusInternalServerError {
					t.Fatalf("request %d: status = %d, want 500 (body %q)", i, status, body)
				}
				if strings.Contains(body, "secret") {
					t.Fatalf("request %d: panic detail leaked to client: %q", i, body)
				}
				if got := m.Panics.Load(); got != int64(i) {
					t.Fatalf("request %d: panics = %d, want %d", i, got, i)
				}
			}
			if !strings.Contains(logged.String(), "secret internal detail") {
				t.Fatalf("panic detail missing from server log:\n%s", logged.String())
			}
			failures := 0
			for i := 0; i < replicas; i++ {
				failures += f.Health(0, i).Breaker().ConsecutiveFailures()
			}
			if failures != 2 {
				t.Fatalf("breakers counted %d failures, want 2 (one per panicking attempt)", failures)
			}
		})
	}
}

// stubCluster is a fleet whose page fetches run fetch instead.
type stubCluster struct {
	*Fleet
	fetch func(ctx context.Context) (string, int64, error)
}

func (c stubCluster) Fetch(ctx context.Context, _ int, _ string, _ dynamic.PageRef) (string, int64, error) {
	return c.fetch(ctx)
}

// TestEdgeFrontDoorCounters: a shed 503, a deadline 504 and a panic
// recovered by the edge's own handler chain each move their counter in
// the fleet group exactly once, and no other.
func TestEdgeFrontDoorCounters(t *testing.T) {
	f := newTestFleet(t, buildSchema(t), genSiteData(2), 1, 1)
	counters := func(m *obs.FleetMetrics) [3]int64 {
		return [3]int64{m.Shed.Load(), m.Timeouts.Load(), m.Panics.Load()}
	}
	// edgeOver serves an edge over a stubbed fetch, configured by set
	// before its handler is built.
	edgeOver := func(fetch func(ctx context.Context) (string, int64, error), set func(e *Edge)) (*obs.FleetMetrics, *httptest.Server) {
		m := &obs.FleetMetrics{}
		e := quiet(NewEdge(stubCluster{f, fetch}))
		e.Obs = m
		set(e)
		ts := httptest.NewServer(e.Handler())
		t.Cleanup(ts.Close)
		return m, ts
	}

	t.Run("shed", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		m, ts := edgeOver(func(ctx context.Context) (string, int64, error) {
			close(entered)
			<-release
			return "page", 0, nil
		}, func(e *Edge) { e.MaxInflight = 1 })
		done := make(chan int, 1)
		go func() {
			resp, err := http.Get(ts.URL + "/")
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		<-entered
		status, hdr, _ := get(t, ts, "/", nil)
		close(release)
		if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "1" {
			t.Fatalf("shed = %d with Retry-After %q, want 503 with 1", status, hdr.Get("Retry-After"))
		}
		if code := <-done; code != http.StatusOK {
			t.Fatalf("occupying request finished with %d", code)
		}
		if got := counters(m); got != [3]int64{1, 0, 0} {
			t.Fatalf("shed/timeouts/panics = %v, want [1 0 0]", got)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		m, ts := edgeOver(func(ctx context.Context) (string, int64, error) {
			<-ctx.Done()
			return "", 0, ctx.Err()
		}, func(e *Edge) { e.RequestTimeout = 20 * time.Millisecond })
		if status, _, body := get(t, ts, "/", nil); status != http.StatusGatewayTimeout {
			t.Fatalf("deadline = %d (%q), want 504", status, body)
		}
		if got := counters(m); got != [3]int64{0, 1, 0} {
			t.Fatalf("shed/timeouts/panics = %v, want [0 1 0]", got)
		}
	})

	t.Run("panic", func(t *testing.T) {
		var logged bytes.Buffer
		m, ts := edgeOver(func(ctx context.Context) (string, int64, error) {
			panic("secret internal detail")
		}, func(e *Edge) { e.Logger = log.New(&logged, "", 0) })
		status, _, body := get(t, ts, "/", nil)
		if status != http.StatusInternalServerError || strings.Contains(body, "secret") {
			t.Fatalf("panic = %d (%q), want a sanitized 500", status, body)
		}
		if !strings.Contains(logged.String(), "secret internal detail") {
			t.Fatalf("panic detail missing from the edge log:\n%s", logged.String())
		}
		if got := counters(m); got != [3]int64{0, 0, 1} {
			t.Fatalf("shed/timeouts/panics = %v, want [0 0 1]", got)
		}
	})
}
