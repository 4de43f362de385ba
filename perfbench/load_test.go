package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// stallServer answers every request at once except item stallItem,
// which it holds for stall.
func stallServer(t *testing.T, stallItem int, stall time.Duration) (*httptest.Server, *driver) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("item") == strconv.Itoa(stallItem) {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	t.Cleanup(ts.Close)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	t.Cleanup(client.CloseIdleConnections)
	d := &driver{conns: 1, grace: 2 * time.Second, do: func(ctx context.Context, a arrival, o *outcome) {
		resp, err := client.Get(ts.URL + "/?item=" + strconv.Itoa(int(a.item)))
		if err != nil {
			o.err = true
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
	}}
	return ts, d
}

// evenSchedule is one arrival every gap, item i at i·gap.
func evenSchedule(n int, gap time.Duration) []arrival {
	s := make([]arrival, n)
	for i := range s {
		s[i] = arrival{due: time.Duration(i) * gap, item: int32(i)}
	}
	return s
}

// TestDriverChargesQueueingBehindStall proves the open-loop property:
// a request that stalls the only connection delays every request due
// during the stall, and each of them carries that wait in its latency,
// timed from when it was due rather than from when it was sent.
func TestDriverChargesQueueingBehindStall(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stall = 300 * time.Millisecond
	const stallItem = 5
	_, d := stallServer(t, stallItem, stall)
	sched := evenSchedule(60, gap)
	p := d.run(context.Background(), sched)
	s := p.stats()
	if s.failed != 0 {
		t.Fatalf("%d of %d requests failed", s.failed, s.attempted)
	}
	stallEnd := sched[stallItem].due + stall
	for i := stallItem + 1; i < len(sched); i++ {
		a, o := sched[i], &p.out[i]
		if a.due >= stallEnd {
			break
		}
		// Due during the stall: it cannot be sent before the stall ends,
		// so its latency covers at least the rest of the stall.
		want := stallEnd - a.due
		if lat := o.latency(a); lat < want-5*time.Millisecond {
			t.Errorf("request due at %v: latency %v, want >= %v (queued behind the stall)", a.due, lat, want)
		}
		if q := o.sent - a.due; q < want-5*time.Millisecond {
			t.Errorf("request due at %v: queued %v, want >= %v", a.due, q, want)
		}
	}
	// The stall itself shows as the highest latency, and the p99 sees
	// the queue behind it.
	if s.page.p99 < ms(stall)*0.9 {
		t.Errorf("p99 %.1f ms hides a %v stall", s.page.p99, stall)
	}
	// Well after the stall the queue has drained.
	last := len(sched) - 1
	if lat := p.out[last].latency(sched[last]); lat > 100*time.Millisecond {
		t.Errorf("last request latency %v: the backlog never drained", lat)
	}
	if s.maxBacklog < int64(stall/gap)-5 {
		t.Errorf("max backlog %d, want about %d arrivals queued behind the stall", s.maxBacklog, stall/gap)
	}
}

// TestDriverCountsDroppedAndUnsent checks that arrivals the generator
// could not queue or send count as failures, never silently vanish.
func TestDriverCountsDroppedAndUnsent(t *testing.T) {
	_, d := stallServer(t, 0, 400*time.Millisecond)
	d.maxBacklog = 5
	d.grace = 50 * time.Millisecond
	sched := evenSchedule(30, 5*time.Millisecond)
	p := d.run(context.Background(), sched)
	s := p.stats()
	if s.dropped == 0 {
		t.Error("arrivals over the backlog bound were not counted as dropped")
	}
	if s.unsent == 0 {
		t.Error("arrivals still queued at the drain deadline were not counted as unsent")
	}
	if s.failed != s.dropped+s.unsent+s.errs+s.bad {
		t.Errorf("failed %d != dropped %d + unsent %d + errors %d + bad %d", s.failed, s.dropped, s.unsent, s.errs, s.bad)
	}
	if s.attempted != int64(len(sched)) {
		t.Errorf("attempted %d, want every scheduled arrival (%d)", s.attempted, len(sched))
	}
}

func TestPoissonScheduleSeededAndAtRate(t *testing.T) {
	pick := func(r *rand.Rand) (reqKind, int32) { return kindPage, int32(r.Intn(10)) }
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second, pick)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second, pick)
	if len(a) != len(b) {
		t.Fatal("same seed, different schedules")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
	}
	if len(a) < 9500 || len(a) > 10500 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatal("schedule not in due order")
		}
	}
	c := poissonSchedule(rand.New(rand.NewSource(8)), 1000, 10*time.Second, pick)
	if len(c) == len(a) && c[0] == a[0] {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	perm := make([]int32, 2000)
	for i, j := range rng.Perm(2000) {
		perm[i] = int32(j)
	}
	z := newZipf(perm, 1.1)
	counts := make([]int, 2000)
	for i := 0; i < 100000; i++ {
		counts[z.draw(rng)]++
	}
	top := z.perm[0]
	for i, c := range counts {
		if int32(i) != top && c > counts[top] {
			t.Fatalf("page %d drawn %d times, more than the head page (%d)", i, c, counts[top])
		}
	}
	if counts[top] < 5000 {
		t.Fatalf("head page drawn %d of 100000 times; zipf s=1.1 should give it far more", counts[top])
	}
}
