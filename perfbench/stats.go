package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer samples past it is a handful of
// outliers, not a tail.
const tailBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// values: the smallest value with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the 0-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q·n that should be whole (0.6·25) from rounding up.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(k, 0), n-1)
}

// tailQuantile returns the highest quantile, capped at p99, whose
// nearest rank leaves at least tailBeyond samples strictly beyond it,
// and false when there are too few samples for any (n ≤ tailBeyond).
// Quantiles are searched on a 0.1-percentile grid so the printed label
// is exact.
func tailQuantile(n int) (float64, bool) {
	for permille := 990; permille >= 1; permille-- {
		q := float64(permille) / 1000
		if n-1-rank(n, q) >= tailBeyond {
			return q, true
		}
	}
	return 0, false
}

// summary is the distribution of one latency series, in milliseconds.
type summary struct {
	n        int
	p50, p99 float64
	tail     float64 // value at tailQ
	tailQ    float64 // quantile of tail; 0 when n is too small
}

func summarize(ms []float64) summary {
	s := summary{n: len(ms)}
	if len(ms) == 0 {
		return s
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	s.p50 = percentile(sorted, 0.5)
	s.p99 = percentile(sorted, 0.99)
	if q, ok := tailQuantile(len(sorted)); ok {
		s.tailQ = q
		s.tail = percentile(sorted, q)
	}
	return s
}

// tailLabel names the tail percentile, e.g. "p99" or "p90.5".
func (s summary) tailLabel() string {
	if s.tailQ == 0 {
		return "n/a"
	}
	return "p" + trimFloat(s.tailQ*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	if len(s) > 2 && s[len(s)-2:] == ".0" {
		s = s[:len(s)-2]
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return percentile(sorted, 0.5)
}

// ladder searches for the highest sustainable rate: it climbs by a
// factor of grow from start while steps pass, then bisects
// geometrically between the highest pass and the lowest failure until
// their ratio is at most 1+resolution. A failing start rate descends
// by grow until a step passes or the rate drops below floor.
type ladder struct {
	start, grow, resolution, floor float64
	lo, hi                         float64 // highest pass, lowest fail (0 = none)
}

func newLadder(start float64) *ladder {
	return &ladder{start: start, grow: 1.5, resolution: 0.05, floor: 10}
}

// next returns the rate to try, or done when the bracket is resolved.
func (l *ladder) next() (rate float64, done bool) {
	switch {
	case l.lo == 0 && l.hi == 0:
		return l.start, false
	case l.hi == 0:
		return l.lo * l.grow, false
	case l.lo == 0:
		r := l.hi / l.grow
		if r < l.floor {
			return 0, true
		}
		return r, false
	case l.hi/l.lo <= 1+l.resolution:
		return 0, true
	default:
		return math.Sqrt(l.lo * l.hi), false
	}
}

func (l *ladder) record(rate float64, pass bool) {
	if pass {
		if rate > l.lo {
			l.lo = rate
		}
		return
	}
	if l.hi == 0 || rate < l.hi {
		l.hi = rate
	}
}

// capacity is the highest passing rate so far (0 when none passed).
func (l *ladder) capacity() float64 { return l.lo }
