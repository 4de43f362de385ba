package dynamic_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/template"
)

// stressQuery serves a root page whose rendered body lists, through the
// template TEXT= mechanism, the "ver" attribute of every publication
// page. Every publication in one data generation carries the same
// version marker, so a single response mixing two markers is direct
// evidence of a torn graph — a render that crossed data generations.
const stressQuery = `
create Root()
where Pubs(x)
create P(x)
link Root() -> "p" -> P(x)
{
  where x -> "ver" -> v
  link P(x) -> "ver" -> v
}
`

const stressPubs = 12

func stressGraph(version int) *graph.Graph {
	g := graph.New()
	marker := fmt.Sprintf("ver%04d", version)
	for i := 0; i < stressPubs; i++ {
		oid := graph.OID(fmt.Sprintf("p%02d", i))
		g.AddToCollection("Pubs", oid)
		g.AddEdge(oid, "ver", graph.NewString(marker))
	}
	return g
}

var verRE = regexp.MustCompile(`ver\d{4}`)

var errInjected = errors.New("injected fault")

// TestStressServeUnderFaultyReloads is the end-to-end robustness drill:
// 32 concurrent clients hammer a 1×1 fleet while the data source is
// reloaded repeatedly, with injected wrapper faults making some reloads
// fail and then recover mid-run. Half the clients browse through the
// edge; the other half render on the replica directly, so the edge's
// page cache cannot mask the evaluator's concurrency. It proves, under
// -race:
//
//   - no response or render ever mixes two data generations (no torn
//     graph),
//   - a degraded server keeps serving complete last-good pages while
//     /healthz reports degraded,
//   - recovery restores fresh pages and a healthy /healthz.
func TestStressServeUnderFaultyReloads(t *testing.T) {
	stampPath := filepath.Join(t.TempDir(), "pubs.dat")
	if err := os.WriteFile(stampPath, []byte("gen0"), 0o644); err != nil {
		t.Fatal(err)
	}
	var verMu sync.Mutex
	version := 0
	loader := dynamic.NewFlakyLoader(func() (*graph.Graph, error) {
		verMu.Lock()
		defer verMu.Unlock()
		return stressGraph(version), nil
	})
	rl, err := dynamic.NewReloader(dynamic.WatchedSource{Name: "pubs", Paths: []string{stampPath}, Load: loader.Load})
	if err != nil {
		t.Fatal(err)
	}
	rl.Logger = log.New(io.Discard, "", 0)
	rl.Jitter = 0
	rl.BackoffMin = time.Millisecond
	rl.BackoffMax = 4 * time.Millisecond
	metrics := &obs.ServeMetrics{}
	rl.Obs = metrics
	data, err := rl.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	ts := template.NewSet()
	ts.MustAdd("Root", `<SFMT p UL TEXT=ver>`)
	fl, edge := newFrontDoor(t, fleet.Config{Schema: siteSchema(stressQuery), Templates: ts,
		PerFn: map[string]string{"Root": "Root"}, ServeObs: metrics}, data)
	edge.StaleFor = 0
	edgeObs := &obs.FleetMetrics{}
	edge.Obs = edgeObs
	rl.AttachSwapper(fl, edge.Health)
	hs := serve(t, edge)

	// checkBody asserts one page body is complete and from exactly one
	// data generation.
	checkBody := func(src, body string) string {
		markers := verRE.FindAllString(body, -1)
		if len(markers) != stressPubs {
			t.Errorf("%s lists %d publications, want %d (partial page):\n%s", src, len(markers), stressPubs, body)
			return ""
		}
		for _, m := range markers[1:] {
			if m != markers[0] {
				t.Errorf("torn graph: %s mixes %s and %s:\n%s", src, markers[0], m, body)
				return ""
			}
		}
		return markers[0]
	}
	client := &http.Client{Timeout: 15 * time.Second}
	checkResponse := func() string {
		resp, err := client.Get(hs.URL + "/")
		if err != nil {
			t.Errorf("GET /: %v", err)
			return ""
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("GET /: read body: %v", err)
			return ""
		}
		body := string(raw)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET / = %d: %q", resp.StatusCode, body)
			return ""
		}
		return checkBody("response", body)
	}
	root := dynamic.PageRef{Fn: "Root"}
	checkRender := func() {
		body, _, err := fl.Replica(0, 0).Render(context.Background(), root)
		if err != nil {
			t.Errorf("render: %v", err)
			return
		}
		checkBody("render", body)
	}

	// 32 concurrent clients loop until the drill ends.
	const clients = 32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		check := func() { checkResponse() }
		if i%2 == 1 {
			check = checkRender
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				check()
			}
		}()
	}

	// The driver pushes new data generations through the reloader,
	// injecting wrapper faults on every third round.
	waitForVersion := func(v int) {
		want := fmt.Sprintf("ver%04d", v)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if got := checkResponse(); got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("version %s never served", want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	const rounds = 12
	degradedWindows := 0
	for round := 1; round <= rounds; round++ {
		verMu.Lock()
		version = round
		verMu.Unlock()
		if err := os.WriteFile(stampPath, []byte(strings.Repeat("g", round+1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			// This round's reload fails twice before recovering.
			loader.FailNext(2, errInjected)
			rl.Tick(time.Now())
			if !edge.Health.Degraded() {
				t.Fatalf("round %d: health not degraded after failed reload", round)
			}
			degradedWindows++
			// Degraded mode: last-good pages still serve, complete and
			// consistent, while /healthz says degraded.
			if got := checkResponse(); got != fmt.Sprintf("ver%04d", round-1) {
				t.Errorf("round %d: degraded server serves %q, want last-good ver%04d", round, got, round-1)
			}
			if body := readBody1(t, client, hs.URL+"/healthz"); !strings.Contains(body, `"status":"degraded"`) {
				t.Errorf("round %d: healthz while degraded: %s", round, body)
			}
			// Retry (per backoff) until the source recovers.
			deadline := time.Now().Add(10 * time.Second)
			for edge.Health.Degraded() {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: reload never recovered", round)
				}
				time.Sleep(2 * time.Millisecond)
				rl.Tick(time.Now())
			}
		} else {
			rl.Tick(time.Now())
		}
		waitForVersion(round)
	}
	close(stop)
	wg.Wait()

	if degradedWindows == 0 {
		t.Error("drill never exercised a degraded window")
	}
	_, failed := loader.Calls()
	if failed < degradedWindows {
		t.Errorf("injected faults: %d failed loads over %d windows", failed, degradedWindows)
	}
	if body := readBody1(t, client, hs.URL+"/healthz"); !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("final healthz: %s", body)
	}

	// Reload accounting regression: failed ROUNDS count degraded windows
	// (one per window, however many backoff retries it took to recover),
	// while failed ATTEMPTS count every injected fault. Before the
	// transition-based fix, rounds equaled attempts.
	if got := metrics.ReloadRoundsFailed.Load(); got != int64(degradedWindows) {
		t.Errorf("reload_rounds_failed = %d, want %d (one per degraded window)", got, degradedWindows)
	}
	if got := metrics.ReloadFailures.Load(); got != int64(failed) {
		t.Errorf("reload_failures = %d, want %d (one per failed attempt)", got, failed)
	}
	if hst := edge.Health.Snapshot(edge.CacheSize()); hst.FailedRounds != degradedWindows {
		t.Errorf("healthz failedRounds = %d, want %d", hst.FailedRounds, degradedWindows)
	} else if hst.Failures != failed {
		t.Errorf("healthz failures = %d, want %d", hst.Failures, failed)
	}
	if got := metrics.ReloadApplied.Load(); got != rounds {
		t.Errorf("reload_applied = %d, want %d", got, rounds)
	}
	// Serving-side metrics were live during the drill.
	if edgeObs.EdgeRequests.Load() == 0 || edgeObs.EdgeNanos.Count() == 0 {
		t.Error("request metrics not recorded during the drill")
	}
	if metrics.PagesComputed.Load() == 0 {
		t.Error("no page computations recorded")
	}
}

func readBody1(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}
