package obs

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
)

// bucketLabel names histogram bucket i by its exclusive upper bound:
// bucket 0 is exactly 0, bucket i covers [2^(i-1), 2^i).
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	if i >= 63 {
		return "inf"
	}
	return "<" + strconv.FormatInt(int64(1)<<uint(i), 10)
}

// Snapshotter is anything that can report its metrics as a flat,
// JSON-marshalable map. All the per-layer metric structs implement it.
type Snapshotter interface {
	Snapshot() map[string]any
}

// SnapshotterFunc adapts a plain function to Snapshotter (e.g. the
// fleet's live health-grid view).
type SnapshotterFunc func() map[string]any

// Snapshot implements Snapshotter.
func (f SnapshotterFunc) Snapshot() map[string]any { return f() }

// Registry groups named metric sets for export. It implements
// expvar.Var (String returns JSON), so a process can publish one
// registry under one expvar name and serve every layer's metrics from
// /debug/vars without the collision-prone global expvar namespace.
type Registry struct {
	mu     sync.Mutex
	groups map[string]Snapshotter
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: map[string]Snapshotter{}}
}

// Register adds (or replaces) a named metric group.
func (r *Registry) Register(name string, s Snapshotter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.groups[name]; !ok {
		r.order = append(r.order, name)
		sort.Strings(r.order)
	}
	r.groups[name] = s
}

// Snapshot returns every group's metrics, keyed by group name.
func (r *Registry) Snapshot() map[string]map[string]any {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	groups := make(map[string]Snapshotter, len(r.groups))
	for k, v := range r.groups {
		groups[k] = v
	}
	r.mu.Unlock()
	out := make(map[string]map[string]any, len(names))
	for _, n := range names {
		out[n] = groups[n].Snapshot()
	}
	return out
}

// String renders the registry as JSON — the expvar.Var contract.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// histSnap is the JSON shape of one histogram in a Snapshot: count,
// sum, mean, coarse p50/p99 upper bounds, and the non-empty buckets.
func histSnap(h *Histogram) map[string]any {
	s := h.Snapshot()
	mean := 0.0
	if s.Count > 0 {
		mean = float64(s.Sum) / float64(s.Count)
	}
	return map[string]any{
		"count":   s.Count,
		"sum":     s.Sum,
		"mean":    mean,
		"p50":     h.Quantile(0.50),
		"p99":     h.Quantile(0.99),
		"p999":    h.Quantile(0.999),
		"buckets": s.nonZero(),
	}
}

// Operator kinds for EvalMetrics' per-operator arrays, mirroring the
// StruQL condition types.
const (
	OpMember = iota
	OpPred
	OpCmp
	OpNot
	OpEdge
	OpPath
	NumOps
)

var opNames = [NumOps]string{"member", "pred", "cmp", "not", "edge", "path"}

// Guard kinds for EvalMetrics' resource-guard trip counters, mirroring
// the StruQL evaluator's guards.
const (
	GuardRows = iota
	GuardNFAStates
	GuardDeadline
	NumGuards
)

var guardNames = [NumGuards]string{"rows", "nfa_states", "deadline"}

// EvalMetrics instruments StruQL evaluation: per-operator application
// and row counts, NFA-cache (compiled path matchers) and plan-cache
// hit/miss ratios, and parallel worker utilization. Attach it through
// struql.Options.Metrics; a nil *EvalMetrics disables every record at
// the cost of one branch.
type EvalMetrics struct {
	// Ops counts applications of each operator kind; RowsIn/RowsOut
	// count the binding rows entering and leaving those applications.
	Ops     [NumOps]Counter
	RowsIn  [NumOps]Counter
	RowsOut [NumOps]Counter
	// NFAHits/NFAMisses count compiled-path-matcher cache lookups.
	NFAHits   Counter
	NFAMisses Counter
	// PlanHits/PlanMisses count condition-ordering plan cache lookups
	// (not(...) sub-evaluations re-use one plan across candidate rows).
	PlanHits   Counter
	PlanMisses Counter
	// ParallelOps counts per-row operator applications that fanned out
	// to the worker pool; SeqOps those that ran sequentially (small
	// relations or Parallelism=1); Chunks the total chunks dispatched —
	// Chunks/ParallelOps is the mean worker utilization per fan-out.
	ParallelOps Counter
	SeqOps      Counter
	Chunks      Counter
	// WhereEvals counts where-clause evaluations (blocks plus not(...)
	// sub-evaluations).
	WhereEvals Counter
	// GuardTrips counts resource-guard trips by guard kind (rows,
	// NFA states, deadline): how often the evaluator converted a
	// runaway query into a typed failure.
	GuardTrips [NumGuards]Counter
	// StatsBuilds counts cold statistics collections (one per evaluation
	// that wasn't handed warm Options.Stats); StatsLabels counts cold
	// per-label selectivity computations across those collections.
	StatsBuilds Counter
	StatsLabels Counter
	// IndexSeeks/FullScans classify scheduled condition dispatches:
	// seeks go through an index (membership probe, out-edges by label,
	// in-edge/value index, seeded path search), scans visit an extent or
	// the whole graph. RPESeeds counts the subset of seeks where a
	// regular-path search was seeded from label extents instead of
	// scanning every node.
	IndexSeeks Counter
	FullScans  Counter
	RPESeeds   Counter
	// ReorderedConds counts conditions evaluated at a position different
	// from their textual one — executed reorder decisions, counted per
	// where-clause evaluation (cached plans count every time they run).
	ReorderedConds Counter
}

// RecordOp records one operator application: kind, rows in, rows out.
// Nil-safe.
func (m *EvalMetrics) RecordOp(kind, in, out int) {
	if m == nil || kind < 0 || kind >= NumOps {
		return
	}
	m.Ops[kind].Inc()
	m.RowsIn[kind].Add(int64(in))
	m.RowsOut[kind].Add(int64(out))
}

// RecordNFA records a matcher-cache lookup. Nil-safe.
func (m *EvalMetrics) RecordNFA(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.NFAHits.Inc()
	} else {
		m.NFAMisses.Inc()
	}
}

// RecordPlan records a plan-cache lookup. Nil-safe.
func (m *EvalMetrics) RecordPlan(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.PlanHits.Inc()
	} else {
		m.PlanMisses.Inc()
	}
}

// RecordRowMap records one per-row operator dispatch: chunks > 1 means
// a parallel fan-out over that many chunks. Nil-safe.
func (m *EvalMetrics) RecordRowMap(chunks int) {
	if m == nil {
		return
	}
	if chunks > 1 {
		m.ParallelOps.Inc()
		m.Chunks.Add(int64(chunks))
	} else {
		m.SeqOps.Inc()
	}
}

// RecordWhere counts one where-clause evaluation. Nil-safe.
func (m *EvalMetrics) RecordWhere() {
	if m == nil {
		return
	}
	m.WhereEvals.Inc()
}

// RecordStatsBuild counts one cold statistics collection. Nil-safe.
func (m *EvalMetrics) RecordStatsBuild() {
	if m == nil {
		return
	}
	m.StatsBuilds.Inc()
}

// RecordStatsLabel counts one cold per-label selectivity computation.
// Nil-safe.
func (m *EvalMetrics) RecordStatsLabel() {
	if m == nil {
		return
	}
	m.StatsLabels.Inc()
}

// RecordSeek counts one index-seek condition dispatch. Nil-safe.
func (m *EvalMetrics) RecordSeek() {
	if m == nil {
		return
	}
	m.IndexSeeks.Inc()
}

// RecordScan counts one full-scan condition dispatch. Nil-safe.
func (m *EvalMetrics) RecordScan() {
	if m == nil {
		return
	}
	m.FullScans.Inc()
}

// RecordRPESeed counts one label-seeded regular-path dispatch. Nil-safe.
func (m *EvalMetrics) RecordRPESeed() {
	if m == nil {
		return
	}
	m.RPESeeds.Inc()
}

// RecordReorder counts n conditions scheduled away from their textual
// position in one executed plan. Nil-safe.
func (m *EvalMetrics) RecordReorder(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.ReorderedConds.Add(int64(n))
}

// RecordGuard counts one resource-guard trip. Nil-safe.
func (m *EvalMetrics) RecordGuard(kind int) {
	if m == nil || kind < 0 || kind >= NumGuards {
		return
	}
	m.GuardTrips[kind].Inc()
}

// Snapshot implements Snapshotter.
func (m *EvalMetrics) Snapshot() map[string]any {
	out := map[string]any{
		"nfa_cache_hits":          m.NFAHits.Load(),
		"nfa_cache_misses":        m.NFAMisses.Load(),
		"plan_cache_hits":         m.PlanHits.Load(),
		"plan_cache_misses":       m.PlanMisses.Load(),
		"parallel_ops":            m.ParallelOps.Load(),
		"sequential_ops":          m.SeqOps.Load(),
		"chunks_dispatched":       m.Chunks.Load(),
		"where_evals":             m.WhereEvals.Load(),
		"planner_stats_builds":    m.StatsBuilds.Load(),
		"planner_stats_labels":    m.StatsLabels.Load(),
		"planner_index_seeks":     m.IndexSeeks.Load(),
		"planner_full_scans":      m.FullScans.Load(),
		"planner_rpe_seeds":       m.RPESeeds.Load(),
		"planner_reordered_conds": m.ReorderedConds.Load(),
	}
	for k, name := range opNames {
		out["op_"+name+"_applied"] = m.Ops[k].Load()
		out["op_"+name+"_rows_in"] = m.RowsIn[k].Load()
		out["op_"+name+"_rows_out"] = m.RowsOut[k].Load()
	}
	for k, name := range guardNames {
		out["guard_"+name+"_trips"] = m.GuardTrips[k].Load()
	}
	return out
}

// SourceMetrics instruments the mediator and its wrappers: per-source
// load timings and refresh delta sizes. Nil-safe.
type SourceMetrics struct {
	Loads      Counter
	LoadErrors Counter
	// LoadNanos is the wrapper-load + mapping latency distribution.
	LoadNanos Histogram
	// DeltaSize is the distribution of refresh delta sizes (changed
	// edges + memberships per refresh).
	DeltaSize Histogram
}

// RecordLoad records one source load. Nil-safe.
func (m *SourceMetrics) RecordLoad(nanos int64, err error) {
	if m == nil {
		return
	}
	m.Loads.Inc()
	if err != nil {
		m.LoadErrors.Inc()
		return
	}
	m.LoadNanos.Observe(nanos)
}

// RecordDelta records one refresh delta's size. Nil-safe.
func (m *SourceMetrics) RecordDelta(size int) {
	if m == nil {
		return
	}
	m.DeltaSize.Observe(int64(size))
}

// Snapshot implements Snapshotter.
func (m *SourceMetrics) Snapshot() map[string]any {
	return map[string]any{
		"loads":       m.Loads.Load(),
		"load_errors": m.LoadErrors.Load(),
		"load_nanos":  histSnap(&m.LoadNanos),
		"delta_size":  histSnap(&m.DeltaSize),
	}
}

// GenMetrics instruments the HTML generator: pages rendered, BFS waves,
// and per-wave render latency. Nil-safe.
type GenMetrics struct {
	Pages Counter
	Waves Counter
	// WaveNanos is the distribution of wall time per rendered wave.
	WaveNanos Histogram
}

// RecordWave records one rendered BFS wave. Nil-safe.
func (m *GenMetrics) RecordWave(pages int, nanos int64) {
	if m == nil {
		return
	}
	m.Waves.Inc()
	m.Pages.Add(int64(pages))
	m.WaveNanos.Observe(nanos)
}

// Snapshot implements Snapshotter.
func (m *GenMetrics) Snapshot() map[string]any {
	return map[string]any{
		"pages_rendered": m.Pages.Load(),
		"waves":          m.Waves.Load(),
		"wave_nanos":     histSnap(&m.WaveNanos),
	}
}

// ServeMetrics instruments click-time page evaluation: page-cache
// behaviour, single-flight coalescing, and hot-reload outcomes. One
// instance is shared by every replica's evaluator and the reloader; the
// front door's request counters live in FleetMetrics. Nil-safe
// throughout.
type ServeMetrics struct {
	// PageCacheHits/Misses count page lookups served from (or missing)
	// the per-generation page cache; Coalesced counts requests that
	// joined another request's in-flight computation of the same page.
	PageCacheHits   Counter
	PageCacheMisses Counter
	Coalesced       Counter
	PagesComputed   Counter
	QueriesRun      Counter
	// ReloadAttempts counts source refresh attempts; ReloadFailures
	// failed attempts (every backoff retry counts); ReloadRoundsFailed
	// failed rounds — counted exactly once per degraded window, no
	// matter how many backoff retries it takes to recover.
	ReloadAttempts     Counter
	ReloadFailures     Counter
	ReloadRoundsFailed Counter
	// ReloadApplied counts successful swaps; ReloadKept/ReloadDropped
	// the cached pages carried over / invalidated across them.
	ReloadApplied Counter
	ReloadKept    Counter
	ReloadDropped Counter
}

// Snapshot implements Snapshotter.
func (m *ServeMetrics) Snapshot() map[string]any {
	return map[string]any{
		"page_cache_hits":      m.PageCacheHits.Load(),
		"page_cache_misses":    m.PageCacheMisses.Load(),
		"coalesced":            m.Coalesced.Load(),
		"pages_computed":       m.PagesComputed.Load(),
		"queries_run":          m.QueriesRun.Load(),
		"reload_attempts":      m.ReloadAttempts.Load(),
		"reload_failures":      m.ReloadFailures.Load(),
		"reload_rounds_failed": m.ReloadRoundsFailed.Load(),
		"reload_applied":       m.ReloadApplied.Load(),
		"reload_kept":          m.ReloadKept.Load(),
		"reload_dropped":       m.ReloadDropped.Load(),
	}
}
