package repo

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"strudel/internal/ddl"
	"strudel/internal/graph"
	"strudel/internal/qgen"
	"strudel/internal/struql"
)

// The Snapshot differential: a Snapshot over g.Freeze() must be
// indistinguishable from an Indexed over g — every struql.Source
// accessor and LabelStats answer the same, and evaluation over either
// yields byte-identical rows and sites.

const (
	snapshotGraphs  = 40
	snapshotQueries = 400
)

// probeValues lists every value a query could look up with In or
// compare against: every node, every edge target, and values absent
// from the graph.
func probeValues(g *graph.Graph) []graph.Value {
	var out []graph.Value
	for _, n := range g.Nodes() {
		out = append(out, graph.NewNode(n))
	}
	g.Edges(func(e graph.Edge) bool {
		out = append(out, e.To)
		return true
	})
	return append(out, graph.NewNode("nosuch"), graph.NewString("nosuch"),
		graph.NewInt(-1), graph.NewFloat(0.125), graph.NewBool(true))
}

// sameAnswer is reflect.DeepEqual except that a nil and an empty slice
// are the same answer ("no members", "no edges").
func sameAnswer(w, h any) bool {
	vw, vh := reflect.ValueOf(w), reflect.ValueOf(h)
	if vw.Kind() == reflect.Slice && vh.Kind() == reflect.Slice && vw.Len() == 0 && vh.Len() == 0 {
		return vw.Type() == vh.Type()
	}
	return reflect.DeepEqual(w, h)
}

// sortedEdges orders edges by (source, label, target key).
func sortedEdges(es []graph.Edge) []graph.Edge {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.To.Key() < b.To.Key()
	})
	return es
}

// diffSources compares every Source accessor and LabelStats of got
// against want over the given graph's vocabulary.
func diffSources(t *testing.T, seed uint64, g *graph.Graph, want, got interface {
	struql.Source
	struql.LabelStatser
}) {
	t.Helper()
	check := func(what string, w, h any) {
		t.Helper()
		if !sameAnswer(w, h) {
			t.Fatalf("graph %d: %s: Indexed %v, Snapshot %v", seed, what, w, h)
		}
	}
	check("NumNodes", want.NumNodes(), got.NumNodes())
	check("NumEdges", want.NumEdges(), got.NumEdges())
	check("Nodes", want.Nodes(), got.Nodes())
	check("Labels", want.Labels(), got.Labels())
	check("CollectionNames", want.CollectionNames(), got.CollectionNames())

	nodes := append(want.Nodes(), "nosuch")
	labels := append(want.Labels(), "nosuch")
	for _, c := range append(want.CollectionNames(), "Nosuch") {
		check("Collection "+c, want.Collection(c), got.Collection(c))
		check("CollectionSize "+c, want.CollectionSize(c), got.CollectionSize(c))
		for _, n := range nodes {
			check(fmt.Sprintf("InCollection %s %s", c, n), want.InCollection(c, n), got.InCollection(c, n))
		}
	}
	for _, l := range labels {
		check("EdgesLabeled "+l, want.EdgesLabeled(l), got.EdgesLabeled(l))
		check("LabelCount "+l, want.LabelCount(l), got.LabelCount(l))
		wc, ws, wt := want.LabelStats(l)
		gc, gs, gt := got.LabelStats(l)
		check("LabelStats "+l, [3]int{wc, ws, wt}, [3]int{gc, gs, gt})
	}
	for _, n := range nodes {
		check("Out "+string(n), want.Out(n), got.Out(n))
		for _, l := range labels {
			check(fmt.Sprintf("OutLabel %s %s", n, l), want.OutLabel(n, l), got.OutLabel(n, l))
		}
	}
	// Source promises no order for In (Indexed lists in-edges by source,
	// the frozen in-CSR by label), so in-edges compare as sets.
	for _, v := range probeValues(g) {
		check("In "+v.Key(), sortedEdges(want.In(v)), sortedEdges(got.In(v)))
	}
}

func TestSnapshotMatchesIndexedAccessors(t *testing.T) {
	for seed := uint64(0); seed < snapshotGraphs; seed++ {
		g := qgen.Graph(seed)
		// The Indexed side answers from its maps: nothing here asks it
		// for a frozen snapshot, so LabelStats takes the map path too.
		diffSources(t, seed, g, NewIndexed(g), NewSnapshot(g.Freeze()))
	}
}

// dumpRows renders a binding relation byte for byte: variables, then
// every row in evaluation order with type-tagged value keys.
func dumpRows(b *struql.Bindings) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(b.Vars, ","))
	for _, row := range b.Rows {
		sb.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.Key())
		}
	}
	return sb.String()
}

// evalBlocks evaluates every where clause of a block tree, nested
// clauses seeded with their parent's rows, and returns the dumps in
// pre-order.
func evalBlocks(t *testing.T, blocks []*struql.Block, src struql.Source, seed *struql.Bindings, opts *struql.Options) []string {
	t.Helper()
	var out []string
	for _, blk := range blocks {
		b, err := struql.EvalWhere(blk.Where, src, seed, opts)
		if err != nil {
			t.Fatalf("EvalWhere: %v", err)
		}
		out = append(out, dumpRows(b))
		out = append(out, evalBlocks(t, blk.Nested, src, b, opts)...)
	}
	return out
}

func TestSnapshotMatchesIndexedEvaluation(t *testing.T) {
	type side struct {
		name string
		src  struql.Source
		opts *struql.Options
	}
	for i := 0; i < snapshotQueries; i++ {
		seed := uint64(i % snapshotGraphs)
		g := qgen.Graph(seed)
		text := qgen.RichQuery(uint64(i)*7919 + 5)
		q, err := struql.Parse(text)
		if err != nil {
			t.Fatalf("query %d does not parse: %v\n%s", i, err, text)
		}
		ix := NewIndexed(g)
		sides := []side{
			{"Indexed (map indexes)", ix, &struql.Options{NoFrozen: true}},
			{"Indexed (frozen)", ix, nil},
			{"Snapshot", NewSnapshot(g.Freeze()), nil},
		}
		var wantRows []string
		var wantSite string
		for k, s := range sides {
			rows := evalBlocks(t, q.Blocks, s.src, nil, s.opts)
			res, err := struql.Eval(q, s.src, s.opts)
			if err != nil {
				t.Fatalf("query %d on %s: %v\n%s", i, s.name, err, text)
			}
			site := ddl.Print(res.Graph)
			if k == 0 {
				wantRows, wantSite = rows, site
				continue
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Fatalf("query %d on graph %d: %s rows differ from %s\nquery:\n%s\nwant:\n%s\ngot:\n%s",
					i, seed, s.name, sides[0].name, text, strings.Join(wantRows, "\n--\n"), strings.Join(rows, "\n--\n"))
			}
			if site != wantSite {
				t.Fatalf("query %d on graph %d: %s site differs from %s\nquery:\n%s", i, seed, s.name, sides[0].name, text)
			}
		}
	}
}

// A Snapshot offers the evaluator's frozen probe and the planner's
// statistics fast path.
func TestSnapshotInterfaces(t *testing.T) {
	f := sampleGraph().Freeze()
	var src struql.Source = NewSnapshot(f)
	if fs, ok := src.(interface{ Frozen() *graph.Frozen }); !ok || fs.Frozen() != f {
		t.Fatal("Snapshot does not hand the evaluator its frozen graph")
	}
	if _, ok := src.(struql.LabelStatser); !ok {
		t.Fatal("Snapshot does not implement struql.LabelStatser")
	}
}
