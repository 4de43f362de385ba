package mediator

import (
	"errors"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

// mutableSource simulates an external source whose data changes between
// refreshes.
type mutableSource struct {
	g *graph.Graph
}

func (m *mutableSource) load() (*graph.Graph, error) { return m.g.Copy(), nil }

func peopleGraph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("People", "People/mff")
	g.AddEdge("People/mff", "name", graph.NewString("Mary"))
	g.AddEdge("People/mff", "internalPhone", graph.NewString("x1234"))
	return g
}

func pubsGraph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Publications", "pub1")
	g.AddEdge("pub1", "title", graph.NewString("Strudel"))
	g.AddEdge("pub1", "owner", graph.NewString("mff"))
	return g
}

func TestWarehouseMergesSources(t *testing.T) {
	people := &mutableSource{g: peopleGraph()}
	pubs := &mutableSource{g: pubsGraph()}
	m, err := New(
		Source{Name: "people", Load: people.load},
		Source{Name: "pubs", Load: pubs.load},
	)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := m.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	g := ix.Graph()
	if !g.InCollection("People", "People/mff") || !g.InCollection("Publications", "pub1") {
		t.Error("warehouse missing collections")
	}
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4", g.NumEdges())
	}
	names := m.SourceNames()
	if len(names) != 2 || names[0] != "people" {
		t.Errorf("SourceNames = %v", names)
	}
}

func TestGAVMappingQueryShapesContribution(t *testing.T) {
	// The mapping query renames and filters: only the name attribute is
	// exported to the mediated schema, as Person objects.
	people := &mutableSource{g: peopleGraph()}
	mapping := struql.MustParse(`
where People(p), p -> "name" -> n
create Person(p)
link Person(p) -> "name" -> n
collect MediatedPeople(Person(p))
`)
	m, err := New(Source{Name: "people", Load: people.load, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := m.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	g := ix.Graph()
	if g.CollectionSize("MediatedPeople") != 1 {
		t.Fatalf("mediated collection missing:\n%s", g.Dump())
	}
	p := g.Collection("MediatedPeople")[0]
	if g.First(p, "name").Text() != "Mary" {
		t.Error("mapped attribute missing")
	}
	// The internal phone is not exported by the mapping.
	if !g.First(p, "internalPhone").IsNull() {
		t.Error("mapping should filter internalPhone")
	}
}

func TestRefreshReturnsDelta(t *testing.T) {
	src := &mutableSource{g: pubsGraph()}
	m, _ := New(Source{Name: "pubs", Load: src.load})
	if _, err := m.Warehouse(); err != nil {
		t.Fatal(err)
	}
	// No change → empty delta.
	d, err := m.Refresh("pubs")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Errorf("expected empty delta, got %+v", d)
	}
	// Add an article and drop an attribute.
	src.g.AddToCollection("Publications", "pub2")
	src.g.AddEdge("pub2", "title", graph.NewString("Boat"))
	d, err = m.Refresh("pubs")
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() || len(d.AddedEdges) != 1 || len(d.AddedMembers) != 1 {
		t.Errorf("delta = %+v", d)
	}
	if d.AddedMembers[0].OID != "pub2" {
		t.Errorf("added member = %v", d.AddedMembers[0])
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d", d.Size())
	}
	// The warehouse view reflects the refresh.
	if !m.DataGraph().HasNode("pub2") {
		t.Error("DataGraph missing pub2 after refresh")
	}
}

func TestDiffRemovals(t *testing.T) {
	old := pubsGraph()
	new := pubsGraph()
	newer := graph.New()
	newer.Merge(new)
	// Remove by rebuilding without the owner edge.
	rebuilt := graph.New()
	rebuilt.AddToCollection("Publications", "pub1")
	rebuilt.AddEdge("pub1", "title", graph.NewString("Strudel"))
	d := Diff(old, rebuilt)
	if len(d.RemovedEdges) != 1 || d.RemovedEdges[0].Label != "owner" {
		t.Errorf("removed = %v", d.RemovedEdges)
	}
	if len(d.AddedEdges) != 0 {
		t.Errorf("added = %v", d.AddedEdges)
	}
	_ = newer
}

func TestRefreshUnknownSource(t *testing.T) {
	m, _ := New(Source{Name: "a", Load: func() (*graph.Graph, error) { return graph.New(), nil }})
	if _, err := m.Refresh("nope"); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestSourceValidation(t *testing.T) {
	if _, err := New(Source{Name: "", Load: nil}); err == nil {
		t.Error("empty source should fail")
	}
	load := func() (*graph.Graph, error) { return graph.New(), nil }
	if _, err := New(Source{Name: "a", Load: load}, Source{Name: "a", Load: load}); err == nil {
		t.Error("duplicate names should fail")
	}
}

func TestLoadErrorPropagates(t *testing.T) {
	boom := errors.New("connection refused")
	m, _ := New(Source{Name: "flaky", Load: func() (*graph.Graph, error) { return nil, boom }})
	_, err := m.Warehouse()
	if err == nil || !strings.Contains(err.Error(), "flaky") || !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestMappingErrorPropagates(t *testing.T) {
	// A mapping that evaluates with an error: collect of an atom.
	mapping := struql.MustParse(`where People(p), p -> "name" -> n create X(p) collect Names(n)`)
	src := &mutableSource{g: peopleGraph()}
	m, _ := New(Source{Name: "people", Load: src.load, Mapping: mapping})
	if _, err := m.Warehouse(); err == nil || !strings.Contains(err.Error(), "mapping") {
		t.Errorf("err = %v", err)
	}
}

func TestOverlappingSourcesUnifyByOID(t *testing.T) {
	// Two sources contribute attributes of the same object; the mediated
	// graph unifies them (the GAV composition the AT&T site used to join
	// personnel and organizational data).
	a := &mutableSource{g: func() *graph.Graph {
		g := graph.New()
		g.AddToCollection("People", "People/mff")
		g.AddEdge("People/mff", "name", graph.NewString("Mary"))
		return g
	}()}
	b := &mutableSource{g: func() *graph.Graph {
		g := graph.New()
		g.AddEdge("People/mff", "project", graph.NewString("Strudel"))
		return g
	}()}
	m, _ := New(Source{Name: "a", Load: a.load}, Source{Name: "b", Load: b.load})
	ix, err := m.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	g := ix.Graph()
	if g.First("People/mff", "name").IsNull() || g.First("People/mff", "project").IsNull() {
		t.Errorf("attributes not unified:\n%s", g.Dump())
	}
}

// DataSnapshot freezes the contributions without merging them; it must
// equal the snapshot of the merged DataGraph byte for byte, before and
// after a refresh, with sources sharing nodes, edges and memberships.
func TestDataSnapshotMatchesDataGraph(t *testing.T) {
	a := &mutableSource{g: peopleGraph()}
	b := &mutableSource{g: func() *graph.Graph {
		g := pubsGraph()
		g.AddToCollection("People", "People/mff")
		g.AddEdge("People/mff", "name", graph.NewString("Mary"))
		g.AddEdge("People/mff", "project", graph.NewString("Strudel"))
		return g
	}()}
	m, err := New(Source{Name: "a", Load: a.load}, Source{Name: "b", Load: b.load})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Warehouse(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		got := graph.AppendFrozen(nil, m.DataSnapshot())
		want := graph.AppendFrozen(nil, m.DataGraph().Freeze())
		if string(got) != string(want) {
			t.Fatalf("%s: DataSnapshot differs from freezing DataGraph", when)
		}
	}
	check("after Warehouse")
	b.g.AddEdge("People/mff", "internalPhone", graph.NewString("x1234"))
	b.g.AddToCollection("Publications", "pub2")
	if _, err := m.Refresh("b"); err != nil {
		t.Fatal(err)
	}
	check("after Refresh")
}
