package obs

// FleetMetrics instruments the sharded serving tier: the HTTP edge's
// page cache (fresh hits, conditional 304s, stale-while-revalidate
// serves, revalidations), shard routing (per-request fetches, replica
// failovers, shards found fully down), and the edge-observed latency
// distribution. One instance is shared by the edge and the fleet
// coordinator. Nil-safe throughout, like every sink in this package.
type FleetMetrics struct {
	// EdgeRequests counts page requests arriving at the edge;
	// EdgeNanos is their end-to-end latency distribution (the load
	// generator reads its percentiles back over /debug/vars).
	EdgeRequests Counter
	EdgeNanos    Histogram
	// The front door's refusals. Shed counts page requests refused 503
	// at the edge's MaxInflight; Timeouts page requests answered 504
	// because the edge's RequestTimeout expired; Panics panics recovered
	// anywhere on the serving path — in the edge's handler chain or
	// inside a replica's render attempt.
	Shed     Counter
	Timeouts Counter
	Panics   Counter
	// CacheHits counts requests served from a fresh cache entry without
	// touching a shard; CacheMisses cold fetches; StaleServed responses
	// served from a stale (pre-reload) entry inside the
	// stale-while-revalidate window; Revalidations background or
	// synchronous refreshes of a stale entry; NotModified conditional
	// GETs answered 304.
	CacheHits     Counter
	CacheMisses   Counter
	StaleServed   Counter
	Revalidations Counter
	NotModified   Counter
	// ShardFetches counts page fetches dispatched to a shard replica;
	// Failovers fetches retried on another replica after a failure;
	// ShardDown requests refused 503 because every replica of the
	// routed shard was unavailable.
	ShardFetches Counter
	Failovers    Counter
	ShardDown    Counter
	// Generation is the fleet's current data generation; Swaps counts
	// generation bumps (one per applied hot reload).
	Generation Gauge
	Swaps      Counter
	// Gray-failure tolerance. Hedges counts tail-latency hedge attempts
	// launched after the quantile-tracked delay; HedgeWins hedges whose
	// response was the one served; HedgeBudgetExhausted hedge timers
	// that fired with an empty hedge budget; RetryBudgetExhausted
	// failovers refused by the shared retry budget.
	Hedges               Counter
	HedgeWins            Counter
	HedgeBudgetExhausted Counter
	RetryBudgetExhausted Counter
	// BreakerTrips counts circuit breakers tripping open (replica
	// ejected); BreakerCloses breakers closing after successful trials
	// (replica recovered); BreakerProbes half-open trial admissions.
	BreakerTrips  Counter
	BreakerCloses Counter
	BreakerProbes Counter
	// Probes counts active health-check renders; ProbeFailures the
	// failed ones; SlowDemotions replicas newly demoted to suspect for
	// a latency profile far above their siblings'.
	Probes        Counter
	ProbeFailures Counter
	SlowDemotions Counter
	// ChecksumFailures counts replica responses discarded (and failed
	// over) because the body did not match its end-to-end checksum.
	ChecksumFailures Counter
}

// Snapshot implements Snapshotter.
func (m *FleetMetrics) Snapshot() map[string]any {
	return map[string]any{
		"edge_requests":          m.EdgeRequests.Load(),
		"edge_nanos":             histSnap(&m.EdgeNanos),
		"shed":                   m.Shed.Load(),
		"timeouts":               m.Timeouts.Load(),
		"panics":                 m.Panics.Load(),
		"cache_hits":             m.CacheHits.Load(),
		"cache_misses":           m.CacheMisses.Load(),
		"stale_served":           m.StaleServed.Load(),
		"revalidations":          m.Revalidations.Load(),
		"not_modified":           m.NotModified.Load(),
		"shard_fetches":          m.ShardFetches.Load(),
		"failovers":              m.Failovers.Load(),
		"shard_down":             m.ShardDown.Load(),
		"generation":             m.Generation.Load(),
		"swaps":                  m.Swaps.Load(),
		"hedges":                 m.Hedges.Load(),
		"hedge_wins":             m.HedgeWins.Load(),
		"hedge_budget_exhausted": m.HedgeBudgetExhausted.Load(),
		"retry_budget_exhausted": m.RetryBudgetExhausted.Load(),
		"breaker_trips":          m.BreakerTrips.Load(),
		"breaker_closes":         m.BreakerCloses.Load(),
		"breaker_probes":         m.BreakerProbes.Load(),
		"health_probes":          m.Probes.Load(),
		"probe_failures":         m.ProbeFailures.Load(),
		"slow_demotions":         m.SlowDemotions.Load(),
		"checksum_failures":      m.ChecksumFailures.Load(),
	}
}
