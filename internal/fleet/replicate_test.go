package fleet

import (
	"context"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/repo"
	"strudel/internal/struql"
)

// noSnapshotSource offers the Frozen probe but has no snapshot to give,
// like a repo.Indexed whose graph is past the packed-id capacity.
type noSnapshotSource struct{ struql.GraphSource }

func (noSnapshotSource) Frozen() *graph.Frozen { return nil }

// checkPages asserts every page the reference serves renders
// byte-identically on every replica of the fleet.
func checkPages(t *testing.T, f *Fleet, g *graph.Graph) {
	t.Helper()
	ref := newReference(t, buildSchema(t), g)
	for _, pr := range crawlRefs(t, ref) {
		want, err := ref.RenderPage(pr)
		if err != nil {
			t.Fatalf("reference %s: %v", EncodeRef(pr), err)
		}
		for s := 0; s < f.Shards(); s++ {
			for i := 0; i < f.ReplicasPerShard(); i++ {
				got, _, err := f.Replica(s, i).Render(context.Background(), pr)
				if err != nil {
					t.Fatalf("replica %d/%d %s: %v", s, i, EncodeRef(pr), err)
				}
				if got != want {
					t.Fatalf("replica %d/%d %s differs from the reference", s, i, EncodeRef(pr))
				}
			}
		}
	}
}

// A source whose Frozen returns nil has no snapshot to replicate: the
// fleet must share it read-only instead of encoding a nil snapshot, both
// at construction and on a hot swap.
func TestReplicateWithoutSnapshotSharesSource(t *testing.T) {
	g := genSiteData(3)
	src := noSnapshotSource{struql.NewGraphSource(g)}
	f, err := New(Config{Schema: buildSchema(t), Shards: 2, Replicas: 2}, src)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			if got, _ := f.Replica(s, i).ev.SourceGen(); got != struql.Source(src) {
				t.Fatalf("replica %d/%d holds %T, want the shared source", s, i, got)
			}
		}
	}
	checkPages(t, f, g)

	g2 := mutateSiteData(3)
	f.SwapData(noSnapshotSource{struql.NewGraphSource(g2)}, nil)
	if f.Generation() != 1 {
		t.Fatalf("generation %d after swap, want 1", f.Generation())
	}
	checkPages(t, f, g2)
}

// With a snapshot, every replica holds its own decoded copy as a
// repo.Snapshot — shared-nothing, and nothing thawed or re-indexed.
func TestReplicateSnapshotPerReplica(t *testing.T) {
	g := genSiteData(4)
	f := newTestFleet(t, buildSchema(t), g, 2, 2)
	seen := map[*graph.Frozen]bool{}
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			src, _ := f.Replica(s, i).ev.SourceGen()
			snap, ok := src.(*repo.Snapshot)
			if !ok {
				t.Fatalf("replica %d/%d holds %T, want *repo.Snapshot", s, i, src)
			}
			if seen[snap.Frozen()] {
				t.Fatalf("replica %d/%d shares its snapshot with a sibling", s, i)
			}
			seen[snap.Frozen()] = true
		}
	}
	checkPages(t, f, g)
}
