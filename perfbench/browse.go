package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/queryapi"
	"strudel/internal/repo"
	"strudel/internal/struql"
)

// servePhase is one fixed-rate open-loop phase plus the edits made
// beside it.
type servePhase struct {
	p       *phase
	edits   []editRec
	baseGen int64 // fleet generation when the phase started
}

// runFixed offers fixedRate req/s for dur; with edits, one source edit
// per second runs beside the traffic.
func (st *serveState) runFixed(rng *rand.Rand, z *zipf, dur time.Duration, withEdits, traced bool) *servePhase {
	sched := st.schedule(rng, z, fixedRate, dur, traced)
	sp := &servePhase{baseGen: st.fl.Generation()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	if withEdits {
		erng := rand.New(rand.NewSource(rng.Int63()))
		start := time.Now()
		go func() {
			defer close(done)
			sp.edits = st.editor(ctx, start, dur, erng)
		}()
	} else {
		close(done)
	}
	sp.p = st.driver(traced).run(ctx, sched)
	<-done
	return sp
}

// freshLags returns, per successful edit, the time from its file write
// to the first 200 page response carrying its generation or a newer
// one. Edits whose generation was never served count as failed.
func (sp *servePhase) freshLags() (lags []float64, failed int) {
	type seen struct {
		at  time.Time
		gen int64
	}
	var served []seen
	for i, a := range sp.p.sched {
		o := &sp.p.out[i]
		if a.kind == kindPage && !o.failed() {
			served = append(served, seen{sp.p.start.Add(o.done), o.gen})
		}
	}
	sort.Slice(served, func(i, j int) bool { return served[i].at.Before(served[j].at) })
	for _, e := range sp.edits {
		if !e.ok {
			failed++
			continue
		}
		found := false
		for _, s := range served {
			if s.gen >= e.gen && !s.at.Before(e.written) {
				lags = append(lags, ms(s.at.Sub(e.written)))
				found = true
				break
			}
		}
		if !found {
			failed++
		}
	}
	return lags, failed
}

// ladderStep runs one capacity step at rate and reports whether it met
// the SLO: page p99 within sloPageP99MS, failures within sloFailRatio,
// and no backlog left growing when the last arrival was due.
func (st *serveState) ladderStep(rng *rand.Rand, z *zipf, rate float64, dur time.Duration) (bool, phaseStats) {
	p := st.driver(false).run(context.Background(), st.schedule(rng, z, rate, dur, false))
	s := p.stats()
	return stepPasses(s, rate), s
}

// stepPasses is the capacity SLO. A backlog of more than 20 ms of
// arrivals at the end of a step means the generator was falling
// behind, not keeping up.
func stepPasses(s phaseStats, rate float64) bool {
	return s.page.n > 0 && s.page.p99 <= sloPageP99MS && s.failRatio() <= sloFailRatio &&
		float64(s.endBacklog) <= max(2, rate*0.020)
}

// runServe is the browse (withEdits false) and browse_edit workloads.
func runServe(c *config, withEdits bool) (*report, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	dir := filepath.Join(c.work, c.workload)
	var st *serveState
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := setupServe(c, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	defer st.close()
	rep := newReport()
	rep.metric("setup_s", median(setups), "s")

	rng := rand.New(rand.NewSource(c.seed))
	z := newZipf(popularity(rng, st.sizes), zipfS)
	total := time.Duration(c.seconds) * time.Second
	// browse spends a third of the run on the capacity ladder; traced
	// runs split the fixed phase into an untraced and a traced half.
	fixed := total
	switch {
	case c.trace:
		fixed = total / 2
	case !withEdits:
		fixed = total * 2 / 3
	}
	gc0 := readGC()
	phases := []*servePhase{st.runFixed(rng, z, fixed, withEdits, false)}
	var mark obsMark
	if c.trace {
		tr.on.Store(true)
		gc0 = readGC()
		mark = st.markObs()
		phases = append(phases, st.runFixed(rng, z, total-fixed, withEdits, true))
		tr.on.Store(false)
	}
	gc := readGC().since(gc0)

	// The capacity ladder (browse, untraced): its overload steps are
	// meant to fail, so they stay out of the operation counts.
	var capacity float64
	var lad *ladder
	if !withEdits && !c.trace {
		lad = newLadder(fixedRate)
		lad.record(fixedRate, stepPasses(phases[0].p.stats(), fixedRate))
		step := 800 * time.Millisecond
		if c.short {
			step = 300 * time.Millisecond
		}
		deadline := time.Now().Add(total - fixed)
		for time.Now().Add(step).Before(deadline) {
			rate, done := lad.next()
			if done {
				break
			}
			pass, s := st.ladderStep(rng, z, rate, step)
			lad.record(rate, pass)
			rep.line("ladder: %.0f req/s → %s (page p99 %.3f ms, fail %d/%d, end backlog %d)",
				rate, passWord(pass), s.page.p99, s.failed, s.attempted, s.endBacklog)
			time.Sleep(200 * time.Millisecond)
		}
		capacity = lad.capacity()
	}

	// Output checks, outside every timed window.
	mism, err := st.check(phases)
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}

	var editLagFailed int
	var lags []float64
	for _, sp := range phases {
		s := sp.p.stats()
		rep.attempted += s.attempted
		rep.failed += s.failed
		l, f := sp.freshLags()
		lags = append(lags, l...)
		editLagFailed += f
		rep.attempted += int64(len(sp.edits))
		rep.failed += int64(f)
	}
	rep.correct = mism == 0
	s0 := phases[0].p.stats()
	rep.line("dataset org800: %d pages in the pool, %d queries in the pool, fleet 2x2, %d client connections",
		len(st.pages), len(st.queries), st.conns)
	rep.line("output checks: %d mismatches (page bodies vs reference dynamic render per ETag generation; query rows vs in-process EvalWhere)", mism)
	rep.line("generator: lateness p99 %.3f ms, max backlog %d, end backlog %d, unsent %d, dropped %d",
		s0.lateP99, s0.maxBacklog, s0.endBacklog, s0.unsent, s0.dropped)
	rep.line("page_ms_p50 = %.4f ms, page_ms_p99 = %.4f ms (n=%d)", s0.page.p50, s0.page.p99, s0.page.n)
	rep.line("query_ms_p50 = %.4f ms, query_ms_p99 = %.4f ms, query_ms_tail = %.4f ms (%s of %d)",
		s0.query.p50, s0.query.p99, s0.query.tail, s0.query.tailLabel(), s0.query.n)
	fl := summarize(lags)
	if withEdits {
		rep.line("fresh_lag_ms_p50 = %.4f ms, fresh_lag_ms_tail = %.4f ms (%s of %d edits; %d edits never served)",
			fl.p50, fl.tail, fl.tailLabel(), fl.n, editLagFailed)
		rep.line("edit mix: %s", st.ds.edits.mix())
		rep.line("reloads: %d edits picked up by Reloader.Tick, fleet at generation %d", okEdits(phases), st.fl.Generation())
	}
	if lad != nil {
		rep.line("capacity_rps = %.1f req/s (SLO page p99 <= %d ms, fail_ratio <= %g, no growing backlog; bracket %.1f..%.1f)",
			capacity, sloPageP99MS, sloFailRatio, lad.lo, lad.hi)
	}
	if !c.trace {
		// The headline operation: the fresh lag beside edits, the query
		// otherwise; page GETs second.
		head := s0.query.p50
		if withEdits {
			head = fl.p50
		}
		rep.metric("primary_ms_p50", head, "ms")
		rep.metric("secondary_ms_p50", s0.page.p50, "ms")
		phases = nil // the benchmark's records, not the program's
		rep.metric("heap_mb", st.programHeapMB(), "MiB")
		return rep, nil
	}
	st.serveLayers(rep, phases[1], gc, mark)
	s1 := phases[1].p.stats()
	rep.line("tracing overhead: page p50 %.4f ms traced vs %.4f ms untraced (%+.4f ms); query p50 %.4f ms vs %.4f ms (%+.4f ms)",
		s1.page.p50, s0.page.p50, s1.page.p50-s0.page.p50, s1.query.p50, s0.query.p50, s1.query.p50-s0.query.p50)
	return rep, rep.writeSpans(c, tr)
}

func okEdits(phases []*servePhase) int {
	n := 0
	for _, sp := range phases {
		for _, e := range sp.edits {
			if e.ok {
				n++
			}
		}
	}
	return n
}

func passWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

// serveLayers computes the serve-path per-layer metrics of the traced
// phase.
func (st *serveState) serveLayers(rep *report, sp *servePhase, gc gcDelta, mark obsMark) {
	st.recordClientSpans(sp.p)
	ix := indexSpans(st.tr.snapshot())
	L := rep.layers
	var queue, transport, probes []float64
	stale, served := 0, 0
	for i, a := range sp.p.sched {
		o := &sp.p.out[i]
		if o.failed() {
			continue
		}
		if a.kind == kindProbe {
			probes = append(probes, ms(o.done-o.sent))
			continue
		}
		queue = append(queue, ms(o.sent-a.due))
		if t, ok := ix.byID[o.span]; ok {
			transport = append(transport, float64(ix.self(t))/1e6)
		}
		if a.kind == kindPage {
			served++
			if o.gen < sp.newestAt(sp.p.start.Add(o.done)) {
				stale++
			}
		}
	}
	L.set("client.queue_ms_p99", summarize(queue).p99, "ms")
	L.set("client.transport_ms_p50", summarize(transport).p50, "ms")
	edgeSelf := summarize(ix.selfMS("fleet.edge"))
	L.set("fleet.edge_self_ms_p50", edgeSelf.p50, "ms")
	L.set("fleet.edge_self_ms_p99", edgeSelf.p99, "ms")
	hits := 0
	for _, e := range ix.byName["fleet.edge"] {
		if len(ix.children[e.ID]) == 0 {
			hits++
		}
	}
	L.set("fleet.edge_hit_ratio", perN(float64(hits), float64(len(ix.byName["fleet.edge"]))), "ratio")
	fetch := summarize(ix.durMS("fleet.fetch"))
	L.set("fleet.fetch_ms_p50", fetch.p50, "ms")
	L.set("fleet.fetch_ms_p99", fetch.p99, "ms")
	L.set("fleet.hedge_ratio", perN(mark.since(&st.fleetObs.Hedges), mark.since(&st.fleetObs.ShardFetches)), "ratio")
	sh, sm := mark.since(&st.serveObs.PageCacheHits), mark.since(&st.serveObs.PageCacheMisses)
	L.set("dynamic.eval_cache_hit_ratio", perN(sh, sh+sm), "ratio")
	reval := 0
	for _, f := range ix.byName["fleet.fetch"] {
		if f.Parent == 0 {
			reval++
		}
	}
	L.set("fleet.revalidations", float64(reval), "count")
	L.set("fleet.stale_served_ratio", perN(float64(stale), float64(served)), "ratio")
	qh := summarize(ix.durMS("queryapi.handler"))
	L.set("queryapi.handler_ms_p50", qh.p50, "ms")
	L.set("queryapi.handler_ms_p99", qh.p99, "ms")
	qe := summarize(ix.durMS("queryapi.eval"))
	L.set("queryapi.eval_ms_p50", qe.p50, "ms")
	L.set("queryapi.eval_ms_p99", qe.p99, "ms")
	L.set("queryapi.encode_self_ms", mean(ix.selfMS("queryapi.handler")), "ms")
	qc, qm := mark.since(&st.queryObs.ResultCacheHits), mark.since(&st.queryObs.ResultCacheMisses)
	L.set("queryapi.cache_hit_ratio", perN(qc, qc+qm), "ratio")
	L.set("queryapi.rows_per_query", perN(mark.since(&st.queryObs.RowsStreamed), mark.since(&st.queryObs.PagesServed)), "count")
	L.set("wrapper.load_ms", mean(ix.durMS("wrapper.load")), "ms")
	L.set("dynamic.reload_ms", mean(ix.durMS("dynamic.reload")), "ms")
	L.set("dynamic.reload_self_ms", mean(ix.selfMS("dynamic.reload")), "ms")
	L.set("fleet.swap_ms", mean(ix.durMS("fleet.swap")), "ms")
	gc.set(L)
	// client.transport's self time is by construction what the server
	// spans leave of the round trip; the reconciliation claims the
	// probes' mean round trip in its place.
	est := map[string]float64{"client.transport": mean(probes)}
	rep.line("loopback transport: mean %.4f ms over %d empty probe round trips among the traced traffic", mean(probes), len(probes))
	rep.reconcile(ix, "client.page", est, requestTolerance)
	rep.reconcile(ix, "client.query", est, requestTolerance)
	if len(sp.edits) > 0 {
		rep.reconcile(ix, "edit", nil, reconcileTolerance)
	}
}

// programHeapMB releases what only the benchmark holds — the dataset
// model, the source texts of every generation, the page and query
// pools — and returns the live heap of what remains: the reloader, the
// fleet, the edge and the query service. The caller drops its phase
// records first. Only close works on the state afterwards.
func (st *serveState) programHeapMB() float64 {
	st.ds, st.gens, st.pages, st.sizes, st.urls, st.queries = nil, nil, nil, nil, nil, nil
	mb := liveHeapMB()
	runtime.KeepAlive(st) // else the collection frees the program's state too
	return mb
}

// markObs marks the obs counters the serve-path layer metrics read.
func (st *serveState) markObs() obsMark {
	return markCounters(&st.fleetObs.Hedges, &st.fleetObs.ShardFetches,
		&st.serveObs.PageCacheHits, &st.serveObs.PageCacheMisses,
		&st.queryObs.ResultCacheHits, &st.queryObs.ResultCacheMisses,
		&st.queryObs.RowsStreamed, &st.queryObs.PagesServed)
}

// newestAt is the newest generation published by time t.
func (sp *servePhase) newestAt(t time.Time) int64 {
	g := sp.baseGen
	for _, e := range sp.edits {
		if e.ok && !e.published.After(t) && e.gen > g {
			g = e.gen
		}
	}
	return g
}

// respKey names one distinct response: which page or query, at which
// generation, with which content hash.
type respKey struct {
	kind  reqKind
	item  int32
	gen   int64
	hash  uint64
	total int32
}

// check compares every 200 response of the measured phases with a
// reference computed in-process for the generation the response names:
// a single dynamic evaluator's render for pages, struql.EvalWhere's
// rows for queries. It returns the number of mismatching responses.
func (st *serveState) check(phases []*servePhase) (int, error) {
	seen := map[respKey]int{}
	for _, sp := range phases {
		for i, a := range sp.p.sched {
			o := &sp.p.out[i]
			if o.failed() || a.kind == kindProbe {
				continue
			}
			seen[respKey{a.kind, a.item, o.gen, o.hash, o.total}]++
		}
	}
	byGen := map[int64][]respKey{}
	for k := range seen {
		byGen[k.gen] = append(byGen[k.gen], k)
	}
	bad := 0
	for gen, keys := range byGen {
		files, ok := st.gens[gen]
		if !ok {
			for _, k := range keys {
				bad += seen[k]
			}
			continue
		}
		med, err := mediator.New(snapshotSources(files)...)
		if err != nil {
			return 0, err
		}
		data, err := med.Warehouse()
		if err != nil {
			return 0, err
		}
		ref := newRefServer(st.sch, data)
		for _, k := range keys {
			ok, err := st.matches(ref, data, k)
			if err != nil {
				return 0, err
			}
			if !ok {
				bad += seen[k]
			}
		}
	}
	return bad, nil
}

func (st *serveState) matches(ref *dynamic.Server, data *repo.Indexed, k respKey) (bool, error) {
	if k.kind == kindPage {
		body, err := ref.RenderPage(st.pages[k.item])
		if err != nil {
			return false, err
		}
		return hashString(body) == k.hash, nil
	}
	conds, err := struql.ParseWhere(st.queries[k.item])
	if err != nil {
		return false, err
	}
	b, err := struql.EvalWhere(conds, data, nil, nil)
	if err != nil {
		return false, err
	}
	rows := b.Rows
	if len(rows) > queryPageSize {
		rows = rows[:queryPageSize]
	}
	lines, err := wireRows(rows)
	if err != nil {
		return false, err
	}
	return int(k.total) == len(b.Rows) && hashString(lines) == k.hash, nil
}

// wireRows encodes binding rows as queryapi streams them: one JSON row
// message per line.
func wireRows(rows [][]graph.Value) (string, error) {
	type rowMsg struct {
		Kind string               `json:"kind"`
		V    []queryapi.WireValue `json:"v"`
	}
	var out []byte
	for i, r := range rows {
		m := rowMsg{Kind: "row", V: make([]queryapi.WireValue, len(r))}
		for j, v := range r {
			m.V[j] = wire(v)
		}
		line, err := json.Marshal(m)
		if err != nil {
			return "", err
		}
		if i > 0 {
			out = append(out, '\n')
		}
		out = append(out, line...)
	}
	return string(out), nil
}

// wire is queryapi's wire form of one binding value.
func wire(v graph.Value) queryapi.WireValue {
	switch v.Kind() {
	case graph.KindNode:
		return queryapi.WireValue{Type: "node", OID: string(v.OID())}
	case graph.KindString:
		s := v.Str()
		return queryapi.WireValue{Type: "string", Str: &s}
	case graph.KindInt:
		i := v.Int()
		return queryapi.WireValue{Type: "int", Int: &i}
	case graph.KindFloat:
		f := v.Float()
		return queryapi.WireValue{Type: "float", Float: &f}
	case graph.KindBool:
		b := v.Bool()
		return queryapi.WireValue{Type: "bool", Bool: &b}
	case graph.KindURL:
		s := v.Str()
		return queryapi.WireValue{Type: "url", Str: &s}
	case graph.KindFile:
		s := v.Str()
		return queryapi.WireValue{Type: "file", Str: &s, File: v.FileType().String()}
	default:
		return queryapi.WireValue{Type: "null"}
	}
}
