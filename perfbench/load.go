package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// reqKind tells page GETs from /query POSTs and from the traced run's
// transport probes.
type reqKind uint8

const (
	kindPage reqKind = iota
	kindQuery
	kindProbe
)

// arrival is one scheduled request: when it is due (offset from the
// phase start), what it asks for, and which page or query.
type arrival struct {
	due  time.Duration
	kind reqKind
	item int32
}

// outcome is what happened to one arrival. Times are offsets from the
// phase start; latency is done − due, so time spent waiting for a
// connection behind a slow request counts.
type outcome struct {
	sent, done time.Duration
	status     int
	gen        int64         // generation named by the response
	hash       uint64        // page body or query row lines
	total      int32         // query total_rows
	span       int64         // client span ID in the traced run
	verify     time.Duration // checking the response after its body was read
	err        bool          // transport error or timeout
	unsent     bool          // never sent before the drain deadline
	dropped    bool          // refused by the generator: backlog over its bound
}

func (o *outcome) latency(a arrival) time.Duration { return o.done - a.due }

// failed reports whether the arrival counts as a failed operation.
func (o *outcome) failed() bool {
	return o.err || o.unsent || o.dropped || o.status != 200
}

// poissonSchedule precomputes seeded Poisson arrivals at rate per
// second over dur; pick chooses each arrival's kind and item.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, pick func(*rand.Rand) (reqKind, int32)) []arrival {
	var out []arrival
	t := 0.0
	limit := dur.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		k, item := pick(rng)
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), kind: k, item: item})
	}
}

// driver is the open-loop load generator: a dispatcher releases each
// arrival at its due time into a queue that a fixed set of workers —
// one per client connection — drains. The dispatcher never waits for a
// response, so a stalled server faces a growing backlog exactly as it
// would from independent users.
type driver struct {
	conns int
	// do performs one request and fills status, gen, hash and total;
	// it sets err on transport failure.
	do func(ctx context.Context, a arrival, o *outcome)
	// maxBacklog bounds queued arrivals; past it arrivals are dropped
	// (and counted as failures) instead of queued.
	maxBacklog int
	// grace bounds how long after the last arrival was due the workers
	// may still send; arrivals still queued then are unsent failures.
	grace time.Duration
}

// phase is one open-loop run's raw record.
type phase struct {
	sched      []arrival
	out        []outcome
	start      time.Time
	lateMS     []float64 // dispatcher lateness per arrival
	maxBacklog int64
	endBacklog int64 // queued when the last arrival was due
}

func (d *driver) run(ctx context.Context, sched []arrival) *phase {
	p := &phase{sched: sched, out: make([]outcome, len(sched)), lateMS: make([]float64, len(sched))}
	// Sized to the number of sends, so the dispatcher never blocks on
	// a full queue; the backlog bound is enforced by count instead.
	q := make(chan int, len(sched))
	var queued atomic.Int64
	var last time.Duration
	if len(sched) > 0 {
		last = sched[len(sched)-1].due
	}
	cutoff := last + d.grace
	wake, err := newWaker()
	if err == nil {
		defer wake.close()
	}
	p.start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range q {
				queued.Add(-1)
				o := &p.out[i]
				now := time.Since(p.start)
				if now > cutoff || ctx.Err() != nil {
					o.unsent = true
					continue
				}
				o.sent = now
				d.do(ctx, sched[i], o)
				o.done = time.Since(p.start)
			}
		}()
	}
	for i, a := range sched {
		if wait := a.due - time.Since(p.start); wait > 0 {
			if wake == nil || wake.sleep(wait) != nil {
				time.Sleep(wait)
			}
		}
		p.lateMS[i] = ms(time.Since(p.start) - a.due)
		if d.maxBacklog > 0 && queued.Load() >= int64(d.maxBacklog) {
			p.out[i].dropped = true
			continue
		}
		n := queued.Add(1)
		if n > p.maxBacklog {
			p.maxBacklog = n
		}
		q <- i
	}
	p.endBacklog = queued.Load()
	close(q)
	wg.Wait()
	return p
}

// stats of one phase over a window of arrivals.
type phaseStats struct {
	attempted, failed          int64
	unsent, dropped, errs, bad int64
	page, query                summary
	lateP99                    float64
	maxBacklog, endBacklog     int64
}

func (p *phase) stats() phaseStats {
	s := phaseStats{maxBacklog: p.maxBacklog, endBacklog: p.endBacklog}
	var page, query []float64
	for i, a := range p.sched {
		o := &p.out[i]
		s.attempted++
		switch {
		case o.dropped:
			s.dropped++
		case o.unsent:
			s.unsent++
		case o.err:
			s.errs++
		case o.status != 200:
			s.bad++
		}
		if o.failed() {
			s.failed++
			continue
		}
		switch a.kind {
		case kindPage:
			page = append(page, ms(o.latency(a)))
		case kindQuery:
			query = append(query, ms(o.latency(a)))
		}
	}
	s.page, s.query = summarize(page), summarize(query)
	s.lateP99 = summarize(p.lateMS).p99
	return s
}

// failRatio is failed / attempted.
func (s phaseStats) failRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// zipf draws page indexes with popularity ∝ 1/(rank+1)^s, where
// perm[rank] is the page holding each rank.
type zipf struct {
	cdf  []float64
	perm []int32
}

func newZipf(perm []int32, s float64) *zipf {
	n := len(perm)
	z := &zipf{cdf: make([]float64, n), perm: perm}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int32 {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return z.perm[lo]
}
