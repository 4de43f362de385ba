package repo

import "strudel/internal/graph"

// Snapshot is a read-only struql.Source over a frozen graph alone: no
// mutable graph behind it and no map indexes beside it. The frozen
// snapshot's CSR arrays already are the repository's indexes — the
// label-extent CSR is the attribute extent index, the in-CSR is the
// global value index, and per-label statistics are precomputed — so a
// consumer that only reads (a serving replica, a hot-reloaded
// generation) pays for one representation instead of three.
//
// Every accessor returns what Indexed returns over the same data — In's
// edges in label order rather than source order, an order Source leaves
// open; the repository's differential test pins this. A Snapshot is
// immutable and safe for concurrent readers.
type Snapshot struct {
	f *graph.Frozen
}

// NewSnapshot wraps a frozen graph, e.g. one decoded from SGB2 or just
// built by Graph.Freeze. f must be non-nil.
func NewSnapshot(f *graph.Frozen) *Snapshot { return &Snapshot{f: f} }

// Frozen returns the underlying snapshot; the evaluator probes for it
// to take its zero-copy CSR paths.
func (s *Snapshot) Frozen() *graph.Frozen { return s.f }

// --- struql.Source interface ---

// Collection returns the members of coll, sorted.
func (s *Snapshot) Collection(name string) []graph.OID { return s.f.Collection(name) }

// InCollection reports membership.
func (s *Snapshot) InCollection(name string, oid graph.OID) bool {
	return s.f.InCollection(name, oid)
}

// CollectionNames returns all collection names, sorted.
func (s *Snapshot) CollectionNames() []string { return s.f.CollectionNames() }

// CollectionSize returns the extent size of a collection.
func (s *Snapshot) CollectionSize(name string) int { return s.f.CollectionSize(name) }

// Out returns oid's outgoing edges, sorted.
func (s *Snapshot) Out(oid graph.OID) []graph.Edge { return s.f.Out(oid) }

// OutLabel returns the values of oid's edges with the given label.
func (s *Snapshot) OutLabel(oid graph.OID, label string) []graph.Value {
	return s.f.OutLabel(oid, label)
}

// EdgesLabeled returns every edge with the given label, from the
// label-extent CSR.
func (s *Snapshot) EdgesLabeled(label string) []graph.Edge { return s.f.EdgesLabeled(label) }

// In returns every edge whose target equals v, from the in-CSR.
func (s *Snapshot) In(v graph.Value) []graph.Edge { return s.f.In(v) }

// Nodes returns all node OIDs, sorted.
func (s *Snapshot) Nodes() []graph.OID { return s.f.Nodes() }

// Labels returns every attribute name, sorted.
func (s *Snapshot) Labels() []string { return s.f.Labels() }

// LabelCount returns the number of edges with the given label.
func (s *Snapshot) LabelCount(label string) int { return s.f.LabelCount(label) }

// LabelStats returns one label's edge count and distinct source/target
// counts, precomputed at freeze time (struql.LabelStatser).
func (s *Snapshot) LabelStats(label string) (count, sources, targets int) {
	return s.f.LabelStats(label)
}

// NumEdges returns the total number of edges.
func (s *Snapshot) NumEdges() int { return s.f.NumEdges() }

// NumNodes returns the total number of nodes.
func (s *Snapshot) NumNodes() int { return s.f.NumNodes() }
