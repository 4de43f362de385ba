// Command strudel-serve serves a Strudel site dynamically: instead of
// materializing the whole site graph up front, each request evaluates at
// "click time" the incremental queries that compute the requested page
// (§2.5, §7), with result caching and optional lookahead.
//
// Usage:
//
//	strudel-serve -data x.ddl [-bibtex y.bib] -query site.struql
//	              [-template Fn=file.tmpl] [-addr :8080] [-lookahead]
//	              [-request-timeout 10s] [-max-inflight 256]
//	              [-reload-interval 2s] [-shutdown-timeout 10s]
//	              [-shards 1] [-replicas 1] [-stale-for 2s]
//	              [-hedge] [-hedge-min-delay 2ms] [-hedge-max-delay 500ms]
//	              [-hedge-ratio 0.1] [-retry-ratio 0.2] [-attempt-timeout 0]
//	              [-probe-interval 250ms] [-breaker-failures 5]
//	              [-breaker-open-for 500ms] [-query-api]
//	              [-query-max-rows 100000] [-query-timeout 5s]
//
// Templates are keyed by Skolem function name (Fn=...).
//
// The server is production-hardened: per-request deadlines, load shedding
// past -max-inflight, panic recovery, /healthz, hot reload of changed
// -data/-bibtex files with graceful degradation (a broken file keeps the
// last-good site serving and retries with backoff), and SIGINT/SIGTERM
// graceful drain. The serving tier is gray-failure-tolerant: per-replica
// circuit breakers, tail-latency hedging under a token budget, active
// health probing of ejected replicas, and a live health grid under
// /debug/vars (strudel.fleet_health). Exit codes: 0 clean (including graceful shutdown),
// 1 configuration or serving error, 2 listener failure (e.g. address in
// use).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"strudel/internal/ddl"
	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/queryapi"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
	"strudel/internal/wrapper/bibtex"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// Exit codes, distinguished so supervisors can tell a port conflict from
// a crashed site definition.
const (
	exitOK     = 0
	exitError  = 1
	exitListen = 2
)

type config struct {
	dataFiles, bibFiles, templates []string
	queryFile, addr                string
	debugAddr                      string
	lookahead                      bool
	requestTimeout                 time.Duration
	maxInflight                    int
	reloadInterval                 time.Duration
	shutdownTimeout                time.Duration
	shards, replicas               int
	staleFor                       time.Duration
	hedge                          bool
	hedgeMinDelay, hedgeMaxDelay   time.Duration
	hedgeRatio, retryRatio         float64
	attemptTimeout                 time.Duration
	probeInterval                  time.Duration
	breakerFailures                int
	breakerOpenFor                 time.Duration
	queryAPI                       bool
	queryMaxRows                   int
	queryMaxNFAStates              int
	queryTimeout                   time.Duration
	queryPageSize                  int
	queryMaxPageSize               int
	queryMaxInflight               int
}

func main() {
	var cfg config
	var dataFiles, bibFiles, templates stringList
	flag.Var(&dataFiles, "data", "data-definition-language file (repeatable)")
	flag.Var(&bibFiles, "bibtex", "BibTeX file (repeatable)")
	flag.Var(&templates, "template", "template as SkolemFn=file (repeatable)")
	flag.StringVar(&cfg.queryFile, "query", "", "StruQL site-definition query file")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "listen address for /debug/vars and /debug/pprof/* (empty disables; keep it off the public interface)")
	flag.BoolVar(&cfg.lookahead, "lookahead", false, "precompute linked pages after each request")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 10*time.Second, "per-request evaluation deadline (0 disables)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 256, "max concurrent page requests before shedding with 503 (0 = unlimited)")
	flag.DurationVar(&cfg.reloadInterval, "reload-interval", 2*time.Second, "source-file poll period for hot reload (0 disables)")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "bound on graceful drain after SIGINT/SIGTERM")
	flag.IntVar(&cfg.shards, "shards", 1, "number of shared-nothing page-space shards")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replicas per shard (failover capacity)")
	flag.DurationVar(&cfg.staleFor, "stale-for", 2*time.Second, "stale-while-revalidate window after a hot reload (0 disables stale serving)")
	flag.BoolVar(&cfg.hedge, "hedge", true, "hedge tail-latency requests onto a sibling replica")
	flag.DurationVar(&cfg.hedgeMinDelay, "hedge-min-delay", 2*time.Millisecond, "floor for the quantile-tracked hedge delay")
	flag.DurationVar(&cfg.hedgeMaxDelay, "hedge-max-delay", 500*time.Millisecond, "ceiling for the hedge delay")
	flag.Float64Var(&cfg.hedgeRatio, "hedge-ratio", 0.1, "hedge budget as a fraction of offered load")
	flag.Float64Var(&cfg.retryRatio, "retry-ratio", 0.2, "failover-retry budget as a fraction of offered load")
	flag.DurationVar(&cfg.attemptTimeout, "attempt-timeout", 0, "per-replica attempt deadline inside a fetch (0 = request deadline only)")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", 250*time.Millisecond, "active replica health-check period (0 disables probing)")
	flag.IntVar(&cfg.breakerFailures, "breaker-failures", 5, "consecutive replica failures that trip its circuit breaker")
	flag.DurationVar(&cfg.breakerOpenFor, "breaker-open-for", 500*time.Millisecond, "breaker cool-down before half-open trials")
	flag.BoolVar(&cfg.queryAPI, "query-api", true, "serve the StruQL query API (/query, /query/explain, /schema/*)")
	flag.IntVar(&cfg.queryMaxRows, "query-max-rows", 100000, "row guard ceiling per query (requests may only tighten it)")
	flag.IntVar(&cfg.queryMaxNFAStates, "query-max-nfa-states", 1<<20, "path-automaton state guard per query start node")
	flag.DurationVar(&cfg.queryTimeout, "query-timeout", 5*time.Second, "evaluation deadline ceiling per query")
	flag.IntVar(&cfg.queryPageSize, "query-page-size", 100, "default rows per /query page")
	flag.IntVar(&cfg.queryMaxPageSize, "query-max-page-size", 10000, "ceiling on per-request page_size")
	flag.IntVar(&cfg.queryMaxInflight, "query-max-inflight", 64, "max concurrent query requests before shedding with 503 (negative = unlimited)")
	flag.Parse()
	cfg.dataFiles, cfg.bibFiles, cfg.templates = dataFiles, bibFiles, templates

	os.Exit(run(cfg))
}

func run(cfg config) int {
	// Metrics are always collected (they are cheap atomics); the debug
	// listener just decides whether anything can read them.
	metrics := &obs.ServeMetrics{}
	ivmMetrics := &obs.IVMMetrics{}
	fleetMetrics := &obs.FleetMetrics{}
	queryMetrics := &obs.QueryMetrics{}
	fl, edge, rl, err := buildServer(cfg, fleetMetrics, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strudel-serve:", err)
		return exitError
	}
	if rl != nil {
		rl.Obs = metrics
		rl.IVM = ivmMetrics
	}

	// Bind before installing signal handling so "address in use" and its
	// kin are reported as what they are, with their own exit code,
	// instead of masquerading as a serving failure.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "strudel-serve: cannot listen on %s: %v\n", cfg.addr, err)
		return exitListen
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Active health probing keeps ejected replicas on a path back to
	// service even when no traffic is reaching them.
	if cfg.probeInterval > 0 {
		fl.StartHealthChecks(ctx)
	}

	// The debug listener is separate from the production listener on
	// purpose: /debug/vars and /debug/pprof/* expose internals (and
	// pprof can be made to burn CPU), so they bind to an operator-chosen
	// address — typically localhost — and the production mux keeps
	// 404ing /debug/*.
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "strudel-serve: cannot listen on debug address %s: %v\n", cfg.debugAddr, err)
			return exitListen
		}
		dhs := &http.Server{
			Handler:           debugMux(metrics, ivmMetrics, fleetMetrics, queryMetrics, fl.HealthSnapshot),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			<-ctx.Done()
			dhs.Close()
		}()
		go dhs.Serve(dln)
		fmt.Printf("debug endpoints (/debug/vars, /debug/pprof/) on %s\n", cfg.debugAddr)
	}

	if cfg.reloadInterval > 0 && rl != nil {
		rl.Interval = cfg.reloadInterval
		go rl.Run(ctx)
	}

	handler := frontDoor(cfg, fl, edge, queryMetrics)
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      cfg.requestTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if cfg.requestTimeout <= 0 {
		hs.WriteTimeout = 0
	}

	// Drain on signal: stop accepting, let in-flight requests finish,
	// bounded by -shutdown-timeout.
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		shutdownDone <- hs.Shutdown(shCtx)
	}()

	roots := fl.EntryPoints()
	fmt.Printf("serving %d entry point(s) on %s via %d shard(s) x %d replica(s) (start at /, health at /healthz)\n",
		len(roots), cfg.addr, fl.Shards(), fl.ReplicasPerShard())
	err = hs.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "strudel-serve: serve:", err)
		return exitError
	}
	if err := <-shutdownDone; err != nil {
		fmt.Fprintln(os.Stderr, "strudel-serve: shutdown incomplete (in-flight requests past deadline):", err)
		return exitError
	}
	fmt.Println("strudel-serve: graceful shutdown complete")
	return exitOK
}

// debugMux builds the debug listener's handler: the server's metric
// registry under /debug/vars (published into expvar as "strudel") and
// the pprof handlers wired explicitly, so nothing depends on
// http.DefaultServeMux — the production listener never serves these.
func debugMux(metrics *obs.ServeMetrics, ivmMetrics *obs.IVMMetrics, fleetMetrics *obs.FleetMetrics, queryMetrics *obs.QueryMetrics, health func() map[string]any) http.Handler {
	reg := obs.NewRegistry()
	reg.Register("serve", metrics)
	reg.Register("ivm", ivmMetrics)
	reg.Register("fleet", fleetMetrics)
	reg.Register("queryapi", queryMetrics)
	reg.Register("fleet_health", obs.SnapshotterFunc(health))
	expvar.Publish("strudel", reg)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// frontDoor is the production mux: the query API owns /query,
// /query/explain, and /schema/*; the page edge serves everything else.
// Both route through the same fleet, so queries and pages share
// generation snapshots, replica health, and hot reloads.
func frontDoor(cfg config, fl *fleet.Fleet, edge *fleet.Edge, queryMetrics *obs.QueryMetrics) http.Handler {
	if !cfg.queryAPI {
		return edge.Handler()
	}
	qsvc := &queryapi.Service{
		Backend: fl,
		Limits: queryapi.Limits{
			MaxRows:         cfg.queryMaxRows,
			MaxNFAStates:    cfg.queryMaxNFAStates,
			Timeout:         cfg.queryTimeout,
			DefaultPageSize: cfg.queryPageSize,
			MaxPageSize:     cfg.queryMaxPageSize,
		},
		Obs:         queryMetrics,
		MaxInflight: cfg.queryMaxInflight,
	}
	qh := qsvc.Handler()
	root := http.NewServeMux()
	root.Handle("/query", qh)
	root.Handle("/query/", qh)
	root.Handle("/schema/", qh)
	root.Handle("/", edge.Handler())
	return root
}

// buildServer assembles the serving tier from the CLI inputs: the page
// space is partitioned over -shards shared-nothing shards of -replicas
// replicas each (1×1 is a perfectly good fleet), and every request
// enters through the edge — consistent-hash routing, generation-scoped
// conditional GETs, stale-while-revalidate across hot reloads. Every
// -data and -bibtex file becomes a watched source of the hot reloader,
// which polls its mtime and re-wraps it on change; the reloader is nil
// when there is nothing to watch.
func buildServer(cfg config, fleetMetrics *obs.FleetMetrics, metrics *obs.ServeMetrics) (*fleet.Fleet, *fleet.Edge, *dynamic.Reloader, error) {
	if cfg.queryFile == "" {
		return nil, nil, nil, fmt.Errorf("provide -query FILE")
	}
	qb, err := os.ReadFile(cfg.queryFile)
	if err != nil {
		return nil, nil, nil, err
	}
	q, err := struql.Parse(string(qb))
	if err != nil {
		return nil, nil, nil, err
	}
	ts := template.NewSet()
	perFn := map[string]string{}
	for _, spec := range cfg.templates {
		fn, file, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, nil, nil, fmt.Errorf("-template wants SkolemFn=file, got %q", spec)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := ts.Add(fn, string(b)); err != nil {
			return nil, nil, nil, err
		}
		perFn[fn] = fn
	}

	var sources []dynamic.WatchedSource
	for _, f := range cfg.dataFiles {
		f := f
		sources = append(sources, dynamic.WatchedSource{
			Name:  "ddl:" + f,
			Paths: []string{f},
			Load: func() (*graph.Graph, error) {
				b, err := os.ReadFile(f)
				if err != nil {
					return nil, err
				}
				doc, err := ddl.Parse(string(b))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				return doc.Graph, nil
			},
		})
	}
	for _, f := range cfg.bibFiles {
		f := f
		sources = append(sources, dynamic.WatchedSource{
			Name:  "bibtex:" + f,
			Paths: []string{f},
			Load: func() (*graph.Graph, error) {
				b, err := os.ReadFile(f)
				if err != nil {
					return nil, err
				}
				g, err := bibtex.Load(string(b), bibtex.DefaultOptions())
				if err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				return g, nil
			},
		})
	}
	// A site can be pure construction (no data files); it serves fine but
	// has nothing to watch, so the reloader is nil and hot reload is off.
	var rl *dynamic.Reloader
	var data struql.Source
	if len(sources) > 0 {
		rl, err = dynamic.NewReloader(sources...)
		if err != nil {
			return nil, nil, nil, err
		}
		data, err = rl.Warehouse()
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		data = struql.NewGraphSource(graph.New())
	}

	fl, err := fleet.New(fleet.Config{
		Schema:    schema.Build(q),
		Templates: ts,
		PerFn:     perFn,
		Shards:    cfg.shards,
		Replicas:  cfg.replicas,
		Lookahead: cfg.lookahead,
		Obs:       fleetMetrics,
		ServeObs:  metrics,
		Gray: fleet.GrayConfig{
			Breaker: fleet.BreakerConfig{
				Failures: cfg.breakerFailures,
				OpenFor:  cfg.breakerOpenFor,
			},
			HedgeMinDelay:  cfg.hedgeMinDelay,
			HedgeMaxDelay:  cfg.hedgeMaxDelay,
			HedgeRatio:     cfg.hedgeRatio,
			DisableHedge:   !cfg.hedge,
			RetryRatio:     cfg.retryRatio,
			AttemptTimeout: cfg.attemptTimeout,
			ProbeInterval:  cfg.probeInterval,
		},
	}, data)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(fl.EntryPoints()) == 0 {
		return nil, nil, nil, fmt.Errorf("the query has no unconditional zero-argument Skolem creation to serve as an entry point")
	}
	edge := fleet.NewEdge(fl)
	edge.StaleFor = cfg.staleFor
	edge.RequestTimeout = cfg.requestTimeout
	edge.MaxInflight = cfg.maxInflight
	edge.Obs = fleetMetrics
	if rl != nil {
		// Hot reloads swap every replica of every shard in lockstep.
		rl.AttachSwapper(fl, edge.Health)
	}
	return fl, edge, rl, nil
}
