package main

import (
	"math/rand"
	"testing"

	"strudel/internal/mediator"
	"strudel/internal/struql"
)

func TestQueryPool(t *testing.T) {
	ds, err := newDataset(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	med, err := mediator.New(snapshotSources(ds.snapshot())...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	a, b := queryPoolFor(data, 1), queryPoolFor(data, 2)
	if len(a) != queryPool {
		t.Fatalf("pool of %d queries, want %d", len(a), queryPool)
	}
	seen := map[string]bool{}
	for _, q := range a {
		if seen[q] {
			t.Fatalf("query repeated in the pool: %s", q)
		}
		seen[q] = true
		conds, err := struql.ParseWhere(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := struql.EvalWhere(conds, data, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s selects nothing, but its value was drawn from the data", q)
		}
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("seeds 1 and 2 share %d of %d queries", same, len(a))
	}
}

// TestPopularityKeepsSizeProfile checks that the seed changes which
// page holds each popularity rank but not the size of that page beyond
// its size group.
func TestPopularityKeepsSizeProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := make([]int, 2197)
	for i := range sizes {
		sizes[i] = 500 + rng.Intn(100000)
	}
	a := popularity(rand.New(rand.NewSource(1)), sizes)
	b := popularity(rand.New(rand.NewSource(2)), sizes)
	seen := map[int32]bool{}
	moved := 0
	for r := range a {
		if seen[a[r]] {
			t.Fatalf("page %d holds two ranks", a[r])
		}
		seen[a[r]] = true
		if a[r] != b[r] {
			moved++
		}
		lo, hi := sizes[a[r]], sizes[b[r]]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo > 1000 {
			t.Fatalf("rank %d: sizes %d and %d under two seeds", r, sizes[a[r]], sizes[b[r]])
		}
	}
	if moved < len(a)/2 {
		t.Fatalf("only %d of %d ranks changed page between seeds", moved, len(a))
	}
}
