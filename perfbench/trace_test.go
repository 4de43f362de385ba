package main

import (
	"strings"
	"testing"
)

// TestSelfTimeSubtractsChildUnion checks self time against hand
// computation: overlapping children (a hedged fetch) count once, and a
// child running past its parent is clipped to the parent.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ix := indexSpans([]spanRec{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	})
	for _, c := range []struct {
		id   int64
		want int64
	}{
		{1, 100 - (50 - 10) - (100 - 90)},
		{2, 30 - 5},
		{3, 20},
		{5, 5},
	} {
		if got := ix.self(ix.byID[c.id]); got != c.want {
			t.Errorf("self(%s) = %d, want %d", ix.byID[c.id].Name, got, c.want)
		}
	}
	mean, parts, n := ix.breakdown("root")
	if n != 1 || mean != 100e-6 {
		t.Errorf("breakdown: mean %v n %d", mean, n)
	}
	if parts["a"] != 25e-6 || parts["d"] != 5e-6 {
		t.Errorf("breakdown parts %v", parts)
	}
}

// TestReconcileCanFail checks that a span whose self time is only what
// its children leave claims the estimate measured apart, not that
// remainder: with the remainder the layers would claim all 10 ms.
func TestReconcileCanFail(t *testing.T) {
	const msNS = 1e6
	ix := indexSpans([]spanRec{
		{ID: 1, Name: "client.page", Start: 0, End: 10 * msNS},
		{ID: 2, Parent: 1, Name: "client.queue", Start: 0, End: 1 * msNS},
		{ID: 3, Parent: 1, Name: "client.transport", Start: 1 * msNS, End: 10 * msNS},
		{ID: 4, Parent: 3, Name: "fleet.edge", Start: 2 * msNS, End: 4 * msNS},
	})
	for _, c := range []struct {
		transport float64
		verdict   string
	}{
		{7, "within"},  // 1 + 7 + 2 = 10 ms
		{2, "OUTSIDE"}, // 1 + 2 + 2 = 5 ms of 10
	} {
		rep := newReport()
		rep.reconcile(ix, "client.page", map[string]float64{"client.transport": c.transport}, requestTolerance)
		if len(rep.lines) != 1 || !strings.Contains(rep.lines[0], c.verdict) {
			t.Errorf("transport %v ms: %q, want %s", c.transport, rep.lines, c.verdict)
		}
	}
}
