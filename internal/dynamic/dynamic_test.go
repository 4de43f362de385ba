package dynamic

import (
	"testing"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

const siteQuery = `
create RootPage()
link RootPage() -> "title" -> "Home"

where Publications(x)
create PaperPage(x)
link PaperPage(x) -> "self" -> x
{
  where x -> "title" -> t
  link PaperPage(x) -> "title" -> t
}
{
  where x -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Paper" -> PaperPage(x),
       RootPage() -> "YearPage" -> YearPage(y)
}
`

func testData() *graph.Graph {
	g := graph.New()
	add := func(oid graph.OID, title string, year int64) {
		g.AddToCollection("Publications", oid)
		g.AddEdge(oid, "title", graph.NewString(title))
		g.AddEdge(oid, "year", graph.NewInt(year))
	}
	add("pub1", "Query Language", 1997)
	add("pub2", "Catching the Boat", 1998)
	add("pub3", "Another 97 Paper", 1997)
	return g
}

func newEvaluator(t *testing.T, data *graph.Graph) (*Evaluator, *struql.Query) {
	t.Helper()
	q := struql.MustParse(siteQuery)
	return NewEvaluator(schema.Build(q), struql.NewGraphSource(data)), q
}

func TestEntryPoints(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	roots := ev.EntryPoints()
	if len(roots) != 1 || roots[0].Fn != "RootPage" {
		t.Fatalf("EntryPoints = %v", roots)
	}
}

func TestPageComputesOutEdges(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	root, err := ev.Page(PageRef{Fn: "RootPage"})
	if err != nil {
		t.Fatal(err)
	}
	// title atom + two year pages (1997, 1998).
	if len(root.Out) != 3 {
		t.Fatalf("root out = %v", root.Out)
	}
	if len(root.Links) != 2 {
		t.Fatalf("root links = %v", root.Links)
	}
	yp := root.Links[0]
	ypd, err := ev.Page(yp)
	if err != nil {
		t.Fatal(err)
	}
	var papers int
	for _, e := range ypd.Out {
		if e.Label == "Paper" {
			papers++
		}
	}
	// 1997 has two papers; 1998 has one — whichever sorted first.
	if papers != 2 && papers != 1 {
		t.Errorf("year page papers = %d:\n%v", papers, ypd.Out)
	}
}

func TestDynamicAgreesWithStatic(t *testing.T) {
	data := testData()
	ev, q := newEvaluator(t, data)
	dyn, err := ev.MaterializeAll()
	if err != nil {
		t.Fatal(err)
	}
	r, err := struql.Eval(q, struql.NewGraphSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	static := r.Graph
	// Dynamic materialization covers the pages reachable from the entry
	// points; compare edge sets on that region.
	reach := static.Reachable("RootPage()")
	for oid := range reach {
		if _, isPage := ev.RefFor(oid); !isPage {
			continue // data-graph node referenced by the site
		}
		so := static.Out(oid)
		do := dyn.Out(oid)
		if len(so) != len(do) {
			t.Errorf("%s: static %d edges, dynamic %d\nstatic: %v\ndynamic: %v", oid, len(so), len(do), so, do)
			continue
		}
		for i := range so {
			if so[i] != do[i] {
				t.Errorf("%s: edge %d differs: %v vs %v", oid, i, so[i], do[i])
			}
		}
	}
	// And dynamic must not invent pages the static site lacks.
	for _, oid := range dyn.Nodes() {
		if _, isPage := ev.RefFor(oid); isPage && !static.HasNode(oid) {
			t.Errorf("dynamic invented %s", oid)
		}
	}
}

func TestCacheHits(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	ref := PageRef{Fn: "RootPage"}
	if _, err := ev.Page(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Page(ref); err != nil {
		t.Fatal(err)
	}
	st := ev.StatsSnapshot()
	if st.PagesComputed != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLookaheadPrecomputes(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	ev.Lookahead = true
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	st := ev.StatsSnapshot()
	// Root plus its two year pages.
	if st.PagesComputed != 3 {
		t.Errorf("lookahead computed %d pages, want 3", st.PagesComputed)
	}
	// Browsing to a year page is now a cache hit.
	yp := PageRef{Fn: "YearPage", Args: []graph.Value{graph.NewInt(1997)}}
	if _, err := ev.Page(yp); err != nil {
		t.Fatal(err)
	}
	if got := ev.StatsSnapshot().CacheHits; got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

func TestInvalidate(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	if ev.CacheSize() != 1 {
		t.Fatalf("cache = %d", ev.CacheSize())
	}
	// A change to an unrelated label leaves the cache alone.
	d := &mediator.Delta{AddedEdges: []graph.Edge{{From: "x", Label: "unrelated", To: graph.NewInt(1)}}}
	if dropped := ev.Invalidate(d); dropped != 0 {
		t.Errorf("dropped %d on unrelated change", dropped)
	}
	// RootPage depends on the year label (via the nested block's
	// conjunction) and the Publications collection.
	d = &mediator.Delta{AddedMembers: []mediator.Membership{{Coll: "Publications", OID: "pubN"}}}
	if dropped := ev.Invalidate(d); dropped != 1 {
		t.Errorf("dropped %d on Publications change, want 1", dropped)
	}
	if ev.CacheSize() != 0 {
		t.Error("cache should be empty")
	}
}

func TestIncrementalAdditive(t *testing.T) {
	data := testData()
	q := struql.MustParse(siteQuery)
	r, err := struql.Eval(q, struql.NewGraphSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	oldSite := r.Graph
	// Add a publication in a new year.
	data.AddToCollection("Publications", "pub4")
	data.AddEdge("pub4", "title", graph.NewString("New Paper"))
	data.AddEdge("pub4", "year", graph.NewInt(1999))
	delta := &mediator.Delta{
		AddedEdges: []graph.Edge{
			{From: "pub4", Label: "title", To: graph.NewString("New Paper")},
			{From: "pub4", Label: "year", To: graph.NewInt(1999)},
		},
		AddedMembers: []mediator.Membership{{Coll: "Publications", OID: "pub4"}},
	}
	inc, err := Incremental(q, oldSite, struql.NewGraphSource(data), delta)
	if err != nil {
		t.Fatal(err)
	}
	if inc.FullRebuild {
		t.Error("additive delta should not trigger full rebuild")
	}
	full, err := struql.Eval(q, struql.NewGraphSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Site.Dump() != full.Graph.Dump() {
		t.Errorf("incremental differs from full rebuild:\n--- incremental\n%s--- full\n%s",
			inc.Site.Dump(), full.Graph.Dump())
	}
	if !inc.Site.HasNode("YearPage(1999)") {
		t.Error("new year page missing")
	}
}

func TestIncrementalSkipsUnaffectedBlocks(t *testing.T) {
	data := testData()
	q := struql.MustParse(siteQuery)
	r, _ := struql.Eval(q, struql.NewGraphSource(data), nil)
	// A change that touches nothing the query reads.
	data.AddEdge("misc", "noise", graph.NewInt(1))
	delta := &mediator.Delta{AddedEdges: []graph.Edge{{From: "misc", Label: "noise", To: graph.NewInt(1)}}}
	inc, err := Incremental(q, r.Graph, struql.NewGraphSource(data), delta)
	if err != nil {
		t.Fatal(err)
	}
	if inc.BlocksReevaluated != 0 {
		t.Errorf("reevaluated %d blocks for an irrelevant change", inc.BlocksReevaluated)
	}
}

func TestIncrementalRemovalFallsBack(t *testing.T) {
	data := testData()
	q := struql.MustParse(siteQuery)
	r, _ := struql.Eval(q, struql.NewGraphSource(data), nil)
	delta := &mediator.Delta{RemovedEdges: []graph.Edge{{From: "pub1", Label: "year", To: graph.NewInt(1997)}}}
	inc, err := Incremental(q, r.Graph, struql.NewGraphSource(data), delta)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.FullRebuild {
		t.Error("removal should fall back to full rebuild")
	}
}

func TestIncrementalEmptyDelta(t *testing.T) {
	data := testData()
	q := struql.MustParse(siteQuery)
	r, _ := struql.Eval(q, struql.NewGraphSource(data), nil)
	inc, err := Incremental(q, r.Graph, struql.NewGraphSource(data), &mediator.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.BlocksReevaluated != 0 || inc.Site != r.Graph {
		t.Error("empty delta should be a no-op")
	}
}

func TestPageRefArgsMismatchIgnored(t *testing.T) {
	// A Skolem function created in two shapes: only matching-arity edges
	// apply. (Construct the schema directly through a crafted query.)
	q := struql.MustParse(`
where A(x) create F(x) link F(x) -> "v" -> x
`)
	data := graph.New()
	data.AddToCollection("A", "a1")
	ev := NewEvaluator(schema.Build(q), struql.NewGraphSource(data))
	pd, err := ev.Page(PageRef{Fn: "F", Args: []graph.Value{graph.NewNode("a1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Out) != 1 {
		t.Errorf("out = %v", pd.Out)
	}
	// Zero-arg ref to the same fn: no matching edges, no error.
	pd2, err := ev.Page(PageRef{Fn: "F"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd2.Out) != 0 {
		t.Errorf("mismatched arity should yield no edges: %v", pd2.Out)
	}
}
