// Clicktime: dynamic ("click-time") site evaluation (§2.5, §7). Instead
// of materializing a site, the server computes each requested page by
// evaluating the incremental queries its site schema prescribes — with
// caching, lookahead, and cache invalidation on data change. This example
// serves the site the way strudel-serve does, through a 1×1 fleet behind
// the fleet edge on an ephemeral port, browses it over HTTP, changes the
// data, and shows what was recomputed.
//
//	go run ./examples/clicktime [-articles 120]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/repo"
	"strudel/internal/schema"
	"strudel/internal/sites"
	"strudel/internal/struql"
	"strudel/internal/template"
)

var articles = flag.Int("articles", 120, "number of wrapped articles")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Warehouse the CNN data and derive the site schema — no site graph
	// is ever materialized in this example.
	spec := sites.CNN(*articles)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		return err
	}
	data, err := med.Warehouse()
	if err != nil {
		return err
	}
	ts := template.NewSet()
	ts.MustAdd("FrontPage", `<h1><SFMT name></h1><SFMT Category UL TEXT=name>`)
	ts.MustAdd("CategoryPage", `<h1><SFMT name></h1><SFMT Story EMBED UL>`)
	ts.MustAdd("Summary", `<SFMT FullStory TEXT=title>`)
	ts.MustAdd("ArticlePage", `<h1><SFMT title></h1><p><SFMT body></p>`)
	perFn := map[string]string{}
	for _, fn := range []string{"FrontPage", "CategoryPage", "Summary", "ArticlePage"} {
		perFn[fn] = fn
	}
	evalObs, edgeObs := &obs.ServeMetrics{}, &obs.FleetMetrics{}
	fl, err := fleet.New(fleet.Config{Schema: schema.Build(struql.MustParse(sites.CNNQuery)),
		Templates: ts, PerFn: perFn, Lookahead: true, ServeObs: evalObs, Obs: edgeObs}, data)
	if err != nil {
		return err
	}
	edge := fleet.NewEdge(fl)
	edge.Root = dynamic.PageRef{Fn: "FrontPage"}
	edge.Obs = edgeObs

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: edge.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "click-time server on %s\n\n", base)

	// Browse: front page, then the first category link on it.
	front, err := get(base + "/")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GET / → %d bytes; front page starts: %.60s...\n", len(front), front)
	link, err := firstPageLink(front)
	if err != nil {
		return err
	}
	cat, err := get(base + link)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GET %s → %d bytes\n", link, len(cat))
	computed, hits := evalObs.PagesComputed.Load(), edgeObs.CacheHits.Load()
	fmt.Fprintf(w, "work so far: %d pages computed, %d incremental queries, %d edge cache hits\n\n",
		computed, evalObs.QueriesRun.Load(), hits)

	// Re-fetch: everything is cached at the edge.
	for _, u := range []string{"/", link} {
		if _, err := get(base + u); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "after re-browsing: +%d pages computed, +%d edge cache hits\n\n",
		evalObs.PagesComputed.Load()-computed, edgeObs.CacheHits.Load()-hits)

	// A data change swaps in a new generation; only the cached pages the
	// change affects are dropped.
	old := med.DataGraph()
	next := old.Copy()
	next.AddToCollection("Articles", "breaking")
	next.AddEdge("breaking", "category", graph.NewString("world"))
	next.AddEdge("breaking", "title", graph.NewString("Breaking news"))
	kept, dropped := fl.SwapData(repo.NewIndexed(next), mediator.Diff(old, next))
	fmt.Fprintf(w, "data change (new article) dropped %d cached pages and kept %d\n", dropped, kept)
	return nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

func firstPageLink(body string) (string, error) {
	i := strings.Index(body, `href="/page/`)
	if i < 0 {
		return "", fmt.Errorf("no page link on front page")
	}
	rest := body[i+len(`href="`):]
	return rest[:strings.IndexByte(rest, '"')], nil
}
