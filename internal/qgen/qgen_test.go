package qgen

import (
	"testing"

	"strudel/internal/ddl"
	"strudel/internal/graph"
	"strudel/internal/struql"
)

const seeds = 300

// The LCG's output is pinned: the oracles' seeds and checked-in fuzz
// corpora mean what they mean only while this sequence holds.
func TestRandSequencePinned(t *testing.T) {
	r := NewRand(1)
	want := []int{193, 112, 559, 972, 911, 957, 301, 864}
	for i, w := range want {
		if got := r.N(1000); got != w {
			t.Fatalf("NewRand(1) draw %d = %d, want %d", i, got, w)
		}
	}
}

func TestSameSeedSameOutput(t *testing.T) {
	distinct := map[string]bool{}
	for seed := uint64(0); seed < seeds; seed++ {
		a, b := ddl.Print(Graph(seed)), ddl.Print(Graph(seed))
		if a != b {
			t.Fatalf("Graph(%d) differs between calls", seed)
		}
		distinct[a] = true
		if RichQuery(seed) != RichQuery(seed) {
			t.Fatalf("RichQuery(%d) differs between calls", seed)
		}
		if WhereClause(seed) != WhereClause(seed) {
			t.Fatalf("WhereClause(%d) differs between calls", seed)
		}
	}
	// The seed must actually steer the generator.
	if len(distinct) < seeds/2 {
		t.Fatalf("%d seeds gave only %d distinct graphs", seeds, len(distinct))
	}
}

func TestGeneratedQueriesParse(t *testing.T) {
	for seed := uint64(0); seed < seeds; seed++ {
		if _, err := struql.Parse(RichQuery(seed)); err != nil {
			t.Fatalf("RichQuery(%d) does not parse: %v\n%s", seed, err, RichQuery(seed))
		}
		conds, err := struql.ParseWhere(WhereClause(seed))
		if err != nil {
			t.Fatalf("WhereClause(%d) does not parse: %v\n%s", seed, err, WhereClause(seed))
		}
		if n := len(conds); n < 2 || n > 6 {
			t.Fatalf("WhereClause(%d) has %d conditions, want 2..6", seed, n)
		}
	}
}

func TestGraphWithinBounds(t *testing.T) {
	minItems, maxItems := GraphMaxItems, GraphMinItems
	for seed := uint64(0); seed < seeds; seed++ {
		g := Graph(seed)
		items := g.Collection("Items")
		n := len(items)
		if n < GraphMinItems || n > GraphMaxItems {
			t.Fatalf("Graph(%d): %d items, want %d..%d", seed, n, GraphMinItems, GraphMaxItems)
		}
		minItems, maxItems = min(minItems, n), max(maxItems, n)
		if g.NumNodes() != n+1 {
			t.Fatalf("Graph(%d): %d nodes, want %d items + 1 outside", seed, g.NumNodes(), n)
		}
		for _, x := range g.Collection("Extra") {
			if !g.InCollection("Items", x) {
				t.Fatalf("Graph(%d): Extra member %s is not an item", seed, x)
			}
		}
		for _, x := range items {
			if len(g.OutLabel(x, "id")) != 1 || len(g.OutLabel(x, "year")) != 1 {
				t.Fatalf("Graph(%d): item %s lacks its id or year", seed, x)
			}
		}
		if e := g.NumEdges(); e < 2*n+1 || e > MaxEdgesPerItem*n+1 {
			t.Fatalf("Graph(%d): %d edges, want %d..%d", seed, e, 2*n+1, MaxEdgesPerItem*n+1)
		}
		// The outside node: in no collection, reached by "ref" only.
		var outside graph.OID
		for _, x := range g.Nodes() {
			if !g.InCollection("Items", x) {
				outside = x
			}
		}
		if len(g.Out(outside)) != 0 {
			t.Fatalf("Graph(%d): outside node %s has out-edges", seed, outside)
		}
		reached := false
		g.Edges(func(e graph.Edge) bool {
			if e.To.IsNode() && e.To.OID() == outside {
				if e.Label != "ref" {
					t.Fatalf("Graph(%d): %s reaches the outside node", seed, e)
				}
				reached = true
			}
			return true
		})
		if !reached {
			t.Fatalf("Graph(%d): nothing reaches the outside node", seed)
		}
	}
	// Both ends of the size range occur.
	if minItems != GraphMinItems || maxItems != GraphMaxItems {
		t.Fatalf("item counts span %d..%d over %d seeds, want %d..%d",
			minItems, maxItems, seeds, GraphMinItems, GraphMaxItems)
	}
}
