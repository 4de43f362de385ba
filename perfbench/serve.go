package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/queryapi"
	"strudel/internal/repo"
	"strudel/internal/schema"
	"strudel/internal/sites"
	"strudel/internal/struql"
	"strudel/internal/template"
)

const (
	// fixedRate is the offered load of the fixed phases, req/s.
	fixedRate = 1000
	// queryShare of requests are /query POSTs; the rest page GETs.
	queryShare = 0.10
	zipfS      = 1.1
	// queryPool distinct where clauses, requested uniformly; the pool
	// overflows queryapi's 128-entry result cache.
	queryPool = 1024
	// queryPageSize is the server's default page_size (the rows of one
	// response the oracle checks).
	queryPageSize = 100
	// capacity SLO: page p99 and failure ratio limits per ladder step.
	sloPageP99MS = 10
	sloFailRatio = 0.001
	// spanHeader carries the client span ID to the server's root span.
	spanHeader = "X-Perfbench-Span"
	// emptyPath is answered by the traced run's root handler with an
	// empty 200: the transport probes, a probeShare of the traced
	// phase's arrivals, time the loopback transport with no server work
	// under the same load and over the same connections.
	emptyPath  = "/perfbench/empty"
	probeShare = 0.05
)

// serveState is one set-up serving stack: org800 source files watched
// by a dynamic.Reloader feeding a 2×2 fleet behind fleet.Edge, with the
// query API mounted beside it as in strudel-serve, over loopback HTTP.
type serveState struct {
	ds       *dataset
	rl       *dynamic.Reloader
	fl       *fleet.Fleet
	sch      *schema.Schema
	srv      *http.Server
	base     string
	client   *http.Client
	conns    int
	stop     context.CancelFunc
	pages    []dynamic.PageRef
	sizes    []int // reference body size per page
	urls     []string
	queries  []string
	gens     map[int64]map[string]string // generation → source file texts
	tr       *tracer
	fleetObs *obs.FleetMetrics
	serveObs *obs.ServeMetrics
	queryObs *obs.QueryMetrics
}

// tracedCluster times Cluster.Fetch; a fetch with no request span
// above it is a background revalidation.
type tracedCluster struct {
	*fleet.Fleet
	tr *tracer
}

func (c tracedCluster) Fetch(ctx context.Context, shard int, key string, ref dynamic.PageRef) (string, int64, error) {
	s := c.tr.beginCtx(ctx, "fleet.fetch")
	defer s.end()
	return c.Fleet.Fetch(s.with(ctx), shard, key, ref)
}

// tracedBackend times queryapi's evaluations on the fleet.
type tracedBackend struct {
	*fleet.Fleet
	tr *tracer
}

func (b tracedBackend) EvalOn(ctx context.Context, key string, fn func(context.Context, struql.Source, int64) (string, error)) (string, int64, error) {
	s := b.tr.beginCtx(ctx, "queryapi.eval")
	defer s.end()
	return b.Fleet.EvalOn(s.with(ctx), key, fn)
}

// tracedSwapper times the reloader's generation swaps.
type tracedSwapper struct {
	sw dynamic.Swapper
	tr *tracer
}

func (s tracedSwapper) SwapData(src struql.Source, d *mediator.Delta) (int, int) {
	sp := s.tr.beginAmbient("fleet.swap")
	defer sp.end()
	return s.sw.SwapData(src, d)
}

// tracedRoot is the root http.Handler wrapper: one span per request,
// parented to the client's span named in spanHeader.
func tracedRoot(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == emptyPath {
			return
		}
		var parent *spanCtx
		if v := r.Header.Get(spanHeader); v != "" {
			if id, err := strconv.ParseInt(v, 10, 64); err == nil {
				parent = &spanCtx{id: id, trace: id}
			}
		}
		name := "fleet.edge"
		if strings.HasPrefix(r.URL.Path, "/query") {
			name = "queryapi.handler"
		}
		s := tr.begin(name, parent)
		next.ServeHTTP(w, r.WithContext(s.with(r.Context())))
		s.end()
	})
}

// setupServe builds the serving stack, crawls the page pool, seeds the
// query pool and warms the edge cache with one GET of every page.
func setupServe(c *config, dir string, tr *tracer) (*serveState, error) {
	ds, err := newDataset(filepath.Join(dir, "src"), c.seed)
	if err != nil {
		return nil, err
	}
	st := &serveState{ds: ds, tr: tr, gens: map[int64]map[string]string{0: ds.snapshot()}}
	watched := make([]dynamic.WatchedSource, len(sourceFiles))
	for i, sf := range sourceFiles {
		watched[i] = dynamic.WatchedSource{Name: sf.name, Paths: []string{filepath.Join(ds.dir, sf.file)},
			Load: tr.wrapLoad(loader(sf.name, fileReader(ds.dir, sf.file)))}
	}
	rl, err := dynamic.NewReloader(watched...)
	if err != nil {
		return nil, err
	}
	rl.Logger = log.New(io.Discard, "", 0)
	st.rl = rl
	data, err := rl.Warehouse()
	if err != nil {
		return nil, err
	}
	q, err := struql.Parse(sites.OrgSiteQuery)
	if err != nil {
		return nil, err
	}
	st.sch = schema.Build(q)
	if tr != nil {
		st.fleetObs, st.serveObs, st.queryObs = &obs.FleetMetrics{}, &obs.ServeMetrics{}, &obs.QueryMetrics{}
	}
	fl, err := fleet.New(fleet.Config{Schema: st.sch, Templates: template.NewSet(), PerFn: map[string]string{},
		Shards: 2, Replicas: 2, Obs: st.fleetObs, ServeObs: st.serveObs}, data)
	if err != nil {
		return nil, err
	}
	st.fl = fl
	var cluster fleet.Cluster = fl
	var backend queryapi.Backend = fl
	var swapper dynamic.Swapper = fl
	if tr != nil {
		cluster, backend, swapper = tracedCluster{fl, tr}, tracedBackend{fl, tr}, tracedSwapper{fl, tr}
	}
	edge := fleet.NewEdge(cluster)
	edge.MaxInflight = 256
	edge.Obs = st.fleetObs
	rl.AttachSwapper(swapper, edge.Health)
	qsvc := &queryapi.Service{Backend: backend, Obs: st.queryObs, MaxInflight: 64,
		Limits: queryapi.Limits{MaxRows: 100000, MaxNFAStates: 1 << 20, Timeout: 5 * time.Second,
			DefaultPageSize: queryPageSize, MaxPageSize: 10000}}
	qh := qsvc.Handler()
	mux := http.NewServeMux()
	mux.Handle("/query", qh)
	mux.Handle("/query/", qh)
	mux.Handle("/schema/", qh)
	mux.Handle("/", edge.Handler())
	var handler http.Handler = mux
	if tr != nil {
		handler = tracedRoot(tr, mux)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.stop = cancel
	fl.StartHealthChecks(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	st.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go st.srv.Serve(ln)
	st.base = "http://" + ln.Addr().String()
	st.conns = c.conns
	st.client = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: st.conns, MaxIdleConnsPerHost: st.conns, DisableCompression: true}}

	ref := newRefServer(st.sch, data)
	st.pages, st.sizes, err = crawl(ref)
	if err != nil {
		st.close()
		return nil, err
	}
	for _, p := range st.pages {
		st.urls = append(st.urls, fleet.PageURL(p))
	}
	st.queries = queryPoolFor(data, c.seed)

	warm := make([]arrival, len(st.pages))
	for i := range warm {
		warm[i] = arrival{kind: kindPage, item: int32(i)}
	}
	d := st.driver(false)
	d.grace = time.Minute // every warm-up arrival is due at once
	ph := d.run(context.Background(), warm)
	if s := ph.stats(); s.failed > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up: %d of %d page GETs failed", s.failed, s.attempted)
	}
	return st, nil
}

func (st *serveState) close() {
	st.stop()
	st.srv.Close()
	st.client.CloseIdleConnections()
}

// newRefServer is a single dynamic evaluator over one generation's
// data, rendering exactly as every fleet replica does.
func newRefServer(sch *schema.Schema, data struql.Source) *dynamic.Server {
	srv := dynamic.NewServer(dynamic.NewEvaluator(sch, data), template.NewSet())
	srv.PageURLFunc = func(ref dynamic.PageRef, _ graph.OID) string { return fleet.PageURL(ref) }
	return srv
}

// crawl walks the page space breadth-first from the entry points and
// returns every page with the size of its body.
func crawl(srv *dynamic.Server) ([]dynamic.PageRef, []int, error) {
	var out []dynamic.PageRef
	var sizes []int
	seen := map[string]bool{}
	queue := srv.Ev.EntryPoints()
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		key := fleet.EncodeRef(ref)
		if seen[key] {
			continue
		}
		seen[key] = true
		pd, err := srv.Ev.Page(ref)
		if err != nil {
			return nil, nil, fmt.Errorf("crawl %s: %w", key, err)
		}
		body, err := srv.RenderPage(ref)
		if err != nil {
			return nil, nil, fmt.Errorf("crawl %s: %w", key, err)
		}
		out = append(out, ref)
		sizes = append(sizes, len(body))
		queue = append(queue, pd.Links...)
	}
	return out, sizes, nil
}

// queryPoolFor draws queryPool distinct where clauses from generation
// 0's data. Each selects the members of one collection holding one
// value under one label and returns all their attributes:
//
//	C(x), x -> "l" -> v, x -> m -> w
//
// Every (collection, label, value) triple of the data whose value
// StruQL can write as a literal (a string, integer or boolean)
// is a candidate, and the pool is a uniform draw from them, stratified
// by (collection, label): each pair gets its proportional share of the
// pool (largest remainder), and the seed picks which of its values. So
// the pool's mix of point lookups and wide selections follows the data
// and does not swing with the seed.
func queryPoolFor(data *repo.Indexed, seed int64) []string {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	type pair struct {
		coll, label string
		lits        []string
		quota       int
		rem         float64
	}
	var pairs []*pair
	total := 0
	colls := data.CollectionNames()
	sort.Strings(colls)
	for _, c := range colls {
		byLabel := map[string]map[string]bool{}
		for _, x := range data.Collection(c) {
			for _, e := range data.Out(x) {
				lit, ok := literal(e.To)
				if !ok {
					continue
				}
				if byLabel[e.Label] == nil {
					byLabel[e.Label] = map[string]bool{}
				}
				byLabel[e.Label][lit] = true
			}
		}
		for l, set := range byLabel {
			p := &pair{coll: c, label: l}
			for lit := range set {
				p.lits = append(p.lits, lit)
			}
			sort.Strings(p.lits)
			pairs = append(pairs, p)
			total += len(p.lits)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].coll != pairs[j].coll {
			return pairs[i].coll < pairs[j].coll
		}
		return pairs[i].label < pairs[j].label
	})
	left := queryPool
	for _, p := range pairs {
		share := float64(queryPool) * float64(len(p.lits)) / float64(total)
		p.quota = int(share)
		p.rem = share - float64(p.quota)
		left -= p.quota
	}
	byRem := append([]*pair(nil), pairs...)
	sort.SliceStable(byRem, func(i, j int) bool { return byRem[i].rem > byRem[j].rem })
	for _, p := range byRem[:left] {
		p.quota++
	}
	var out []string
	for _, p := range pairs {
		for _, i := range rng.Perm(len(p.lits))[:p.quota] {
			out = append(out, fmt.Sprintf(`%s(x), x -> %q -> %s, x -> m -> w`, p.coll, p.label, p.lits[i]))
		}
	}
	return out
}

// literal writes an atomic value as a StruQL constant; false for
// values the benchmark does not write as constants (nodes, files,
// URLs, floats).
func literal(v graph.Value) (string, bool) {
	switch v.Kind() {
	case graph.KindString:
		return strconv.Quote(v.Str()), true
	case graph.KindInt:
		return strconv.FormatInt(v.Int(), 10), true
	case graph.KindBool:
		return strconv.FormatBool(v.Bool()), true
	}
	return "", false
}

// popularity ranks the pages for zipf draws. The seed picks which page
// holds each rank, but only among pages of nearly the same size (groups
// of popGroup by size): the size of the page at every rank is the same
// for every seed, so the bytes a run serves — and with them transport
// time — do not swing with the seed.
func popularity(rng *rand.Rand, sizes []int) []int32 {
	const popGroup = 4
	n := len(sizes)
	bySize := make([]int32, n)
	for i := range bySize {
		bySize[i] = int32(i)
	}
	sort.SliceStable(bySize, func(a, b int) bool { return sizes[bySize[a]] < sizes[bySize[b]] })
	group := make([]int, n)
	var members [][]int32
	for k, p := range bySize {
		if k%popGroup == 0 {
			members = append(members, nil)
		}
		group[p] = len(members) - 1
		members[len(members)-1] = append(members[len(members)-1], p)
	}
	for _, m := range members {
		rng.Shuffle(len(m), func(a, b int) { m[a], m[b] = m[b], m[a] })
	}
	// The reference ranking is fixed; the seed only swaps pages within
	// a size group.
	perm := make([]int32, n)
	for r, p := range rand.New(rand.NewSource(1)).Perm(n) {
		g := group[p]
		perm[r] = members[g][0]
		members[g] = members[g][1:]
	}
	return perm
}

// driver returns the open-loop driver over this stack's client. In
// the traced run each request gets a client span ID the server's root
// span nests under.
func (st *serveState) driver(traced bool) *driver {
	d := &driver{conns: st.conns, maxBacklog: 20000, grace: time.Second, do: st.do}
	if traced {
		d.do = func(ctx context.Context, a arrival, o *outcome) {
			o.span = st.tr.nextID.Add(1)
			st.do(ctx, a, o)
		}
	}
	return d
}

// do performs one request and records what the response names.
func (st *serveState) do(ctx context.Context, a arrival, o *outcome) {
	var req *http.Request
	var err error
	switch a.kind {
	case kindProbe:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, st.base+emptyPath, nil)
	case kindPage:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, st.base+st.urls[a.item], nil)
	default:
		body, _ := json.Marshal(queryapi.QueryRequest{Query: st.queries[a.item]})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/query", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		o.err = true
		return
	}
	if o.span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(o.span, 10))
	}
	resp, err := st.client.Do(req)
	if err != nil {
		o.err = true
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		o.err = true
		return
	}
	read := time.Now()
	defer func() { o.verify = time.Since(read) }()
	o.status = resp.StatusCode
	if o.status != 200 || a.kind == kindProbe {
		return
	}
	if a.kind == kindPage {
		o.gen = etagGen(resp.Header.Get("ETag"))
		o.hash = hashString(string(body))
		return
	}
	o.gen, o.total, o.hash, err = parseQueryResponse(body)
	if err != nil {
		o.status = -1
	}
}

// etagGen reads the generation out of a fleet ETag "g<gen>-<hash>".
func etagGen(etag string) int64 {
	etag = strings.Trim(etag, `"`)
	g, _, _ := strings.Cut(strings.TrimPrefix(etag, "g"), "-")
	n, err := strconv.ParseInt(g, 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// parseQueryResponse reads an NDJSON /query response: the header's
// generation and total, and a hash of the row lines.
func parseQueryResponse(body []byte) (gen int64, total int32, hash uint64, err error) {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 2 {
		return 0, 0, 0, fmt.Errorf("short response")
	}
	var hdr struct {
		Generation int64 `json:"generation"`
		TotalRows  int32 `json:"total_rows"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return 0, 0, 0, err
	}
	return hdr.Generation, hdr.TotalRows, hashString(strings.Join(lines[1:len(lines)-1], "\n")), nil
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// schedule draws the mixed page/query arrivals of one phase; with
// probes, a probeShare of them are transport probes instead.
func (st *serveState) schedule(rng *rand.Rand, z *zipf, rate float64, dur time.Duration, probes bool) []arrival {
	return poissonSchedule(rng, rate, dur, func(r *rand.Rand) (reqKind, int32) {
		if probes && r.Float64() < probeShare {
			return kindProbe, 0
		}
		if r.Float64() < queryShare {
			return kindQuery, int32(r.Intn(len(st.queries)))
		}
		return kindPage, z.draw(r)
	})
}

// recordClientSpans turns a traced phase's outcomes into client spans.
func (st *serveState) recordClientSpans(p *phase) {
	tr := st.tr
	for i, a := range p.sched {
		o := &p.out[i]
		if o.span == 0 || o.failed() || a.kind == kindProbe {
			continue
		}
		name := "client.page"
		if a.kind == kindQuery {
			name = "client.query"
		}
		// The server's spans already carry o.span as their trace ID, so
		// every client span of the request takes it too.
		root := tr.nextID.Add(1)
		due, sent, done := p.start.Add(a.due), p.start.Add(o.sent), p.start.Add(o.done)
		read := done.Add(-o.verify)
		tr.record(name, root, 0, o.span, due, done)
		tr.record("client.queue", tr.nextID.Add(1), root, o.span, due, sent)
		tr.record("client.transport", o.span, root, o.span, sent, read)
		tr.record("client.verify", tr.nextID.Add(1), root, o.span, read, done)
	}
}

// editRec is one browse_edit source edit: when its file was written,
// the generation its reload published, and whether that worked.
type editRec struct {
	written, published time.Time
	gen                int64
	ok                 bool
}

// editor writes one seeded source edit per second to a watched file
// and picks it up with Reloader.Tick, the strudel-serve reload path.
func (st *serveState) editor(ctx context.Context, start time.Time, dur time.Duration, rng *rand.Rand) []editRec {
	var out []editRec
	for k := 0; ; k++ {
		due := time.Duration(k)*time.Second + time.Duration(rng.Int63n(int64(400*time.Millisecond))) + 300*time.Millisecond
		if due >= dur-500*time.Millisecond {
			return out
		}
		select {
		case <-ctx.Done():
			return out
		case <-time.After(time.Until(start.Add(due))):
		}
		e := st.ds.edits.next()
		before := st.fl.Generation()
		root := st.tr.begin("edit", nil)
		written := time.Now()
		err := st.ds.write(e.file)
		tick := st.tr.begin("dynamic.reload", root.ctx())
		restore := tick.asAmbient()
		st.rl.Tick(time.Now())
		restore()
		tick.end()
		root.end()
		gen := st.fl.Generation()
		rec := editRec{written: written, published: time.Now(), gen: gen,
			ok: err == nil && gen == before+1}
		if rec.ok {
			st.gens[gen] = st.ds.snapshot()
		}
		out = append(out, rec)
	}
}
