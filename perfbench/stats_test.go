package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// beyond counts the samples strictly above the reported q-quantile of
// the n distinct samples 0..n-1.
func beyond(n int, q float64) int {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i)
	}
	p := percentile(vs, q)
	c := 0
	for _, v := range vs {
		if v > p {
			c++
		}
	}
	return c
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		q, ok := tailQuantile(n)
		if n <= tailBeyond {
			if ok {
				t.Fatalf("n=%d: no percentile can have %d samples beyond it, got q=%v", n, tailBeyond, q)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no tail quantile", n)
		}
		if q > 0.99 {
			t.Fatalf("n=%d: tail q=%v above p99", n, q)
		}
		if b := beyond(n, q); b < tailBeyond {
			t.Fatalf("n=%d: q=%v leaves %d samples beyond, want >= %d", n, q, b, tailBeyond)
		}
		// Highest: the next grid step up (unless capped at p99) would
		// leave fewer than tailBeyond samples beyond.
		if next := q + 0.001; q < 0.99 && beyond(n, next) >= tailBeyond {
			t.Fatalf("n=%d: q=%v is not the highest; %v also leaves %d beyond", n, q, next, beyond(n, next))
		}
	}
	if q, _ := tailQuantile(100000); q != 0.99 {
		t.Fatalf("large samples should report p99, got %v", q)
	}
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{11, 12, 20, 57, 100, 101, 999, 1000, 1001, 4321} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.ExpFloat64() + float64(i)*1e-9 // distinct
		}
		s := summarize(vs)
		above := 0
		for _, v := range vs {
			if v > s.tail {
				above++
			}
		}
		if above < tailBeyond {
			t.Errorf("n=%d: %s = %v has %d samples beyond, want >= %d", n, s.tailLabel(), s.tail, above, tailBeyond)
		}
		if s.tail < s.p50 && s.tailQ >= 0.5 {
			t.Errorf("n=%d: tail %v below p50 %v", n, s.tail, s.p50)
		}
	}
	if s := summarize([]float64{1, 2, 3}); s.tailLabel() != "n/a" {
		t.Errorf("3 samples: tail label %q, want n/a", s.tailLabel())
	}
}

func TestTailLabel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{100000, "p99"}, {100, "p90"}, {20, "p50"}, {25, "p60"}} {
		vs := make([]float64, c.n)
		for i := range vs {
			vs[i] = float64(i)
		}
		if got := summarize(vs).tailLabel(); got != c.want {
			t.Errorf("n=%d: tail label %q, want %q", c.n, got, c.want)
		}
	}
}

// climb runs a ladder against a system whose true capacity is capRate
// (a step passes iff its rate is at most capRate).
func climb(l *ladder, capRate float64) (steps int) {
	for {
		rate, done := l.next()
		if done {
			return steps
		}
		steps++
		l.record(rate, rate <= capRate)
		if steps > 100 {
			return steps
		}
	}
}

func TestLadderResolvesToFivePercent(t *testing.T) {
	for _, capRate := range []float64{1000, 1234, 2999, 3050, 7777, 40000} {
		l := newLadder(1000)
		steps := climb(l, capRate)
		if steps > 30 {
			t.Fatalf("cap %v: ladder did not converge (%d steps)", capRate, steps)
		}
		if l.lo > capRate || l.hi <= capRate {
			t.Fatalf("cap %v: bracket [%v, %v] does not contain the capacity", capRate, l.lo, l.hi)
		}
		if l.hi/l.lo > 1.05 {
			t.Fatalf("cap %v: bracket [%v, %v] coarser than 5%%", capRate, l.lo, l.hi)
		}
		if got := l.capacity(); got != l.lo {
			t.Fatalf("cap %v: capacity %v, want the highest pass %v", capRate, got, l.lo)
		}
	}
}

func TestLadderDescendsWhenStartFails(t *testing.T) {
	l := newLadder(1000)
	climb(l, 300)
	if l.lo > 300 || l.hi <= 300 || l.hi/l.lo > 1.05 {
		t.Fatalf("bracket [%v, %v] for capacity 300", l.lo, l.hi)
	}
	l = newLadder(1000)
	climb(l, 1) // nothing passes above the floor
	if l.capacity() != 0 {
		t.Fatalf("capacity %v, want 0 when no step passes", l.capacity())
	}
}

func TestStepPasses(t *testing.T) {
	ok := phaseStats{attempted: 1000, page: summary{n: 900, p99: 9.9}}
	if !stepPasses(ok, 1000) {
		t.Fatal("a step within the SLO must pass")
	}
	slow := ok
	slow.page.p99 = 10.1
	failing := ok
	failing.failed = 2
	backlog := ok
	backlog.endBacklog = 21
	for name, s := range map[string]phaseStats{"p99": slow, "failures": failing, "backlog": backlog} {
		if stepPasses(s, 1000) {
			t.Errorf("%s: step should fail the SLO", name)
		}
	}
}
