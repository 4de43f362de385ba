package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"strudel/internal/constraints"
	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/htmlgen"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/repo"
	"strudel/internal/sites"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// authorState is one set-up author session: the dataset's files, the
// reference build, and the maintained site of the edit path.
type authorState struct {
	ds      *dataset
	spec    *core.Spec
	ref     map[string]map[string]string // version → page → html
	med     *mediator.Mediator
	site    *ivm.Site
	checks  []constraints.Constraint
	ivmObs  *obs.IVMMetrics
	evalObs *obs.EvalMetrics
	tr      *tracer
	// pub holds every published tree: the live site and the builds.
	pub *memFS
	// refSeq is the edit count the reference build reflects.
	refSeq int
}

// setupAuthor generates the dataset, makes the Parallelism: 1
// reference build, warehouses the file sources, builds the maintained
// site and publishes it whole.
func setupAuthor(c *config, dir string, tr *tracer) (*authorState, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ds, err := newDataset(filepath.Join(dir, "src"), c.seed)
	if err != nil {
		return nil, err
	}
	st := &authorState{ds: ds, spec: sites.OrgSite(nPeople, nOrgs, nProjects, nPubs), tr: tr,
		pub: newMemFS()}
	if err := st.buildRef(st.spec); err != nil {
		return nil, err
	}
	// The IVM counters are kept in every run: the applied / full-rebuild
	// counts are printed with each result, and cost a few atomic adds
	// per edit.
	st.ivmObs = &obs.IVMMetrics{}
	if tr != nil {
		st.evalObs = &obs.EvalMetrics{}
	}
	med, err := mediator.New(ds.fileSources(tr.wrapLoad)...)
	if err != nil {
		return nil, err
	}
	st.med = med
	data, err := med.Warehouse()
	if err != nil {
		return nil, err
	}
	v := &st.spec.Versions[0]
	for _, cs := range v.Constraints {
		ck, err := constraints.Parse(cs)
		if err != nil {
			return nil, err
		}
		st.checks = append(st.checks, ck)
	}
	site, err := ivm.NewSite(v, data, nil, st.ivmObs)
	if err != nil {
		return nil, err
	}
	st.site = site
	if !checksPass(st.checks, site.SiteGraph()) {
		return nil, fmt.Errorf("constraints violated on the initial site")
	}
	if err := site.Publish(st.pub, liveDir, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// buildRef makes the Parallelism: 1 reference build every measured
// build must match byte for byte.
func (st *authorState) buildRef(spec *core.Spec) error {
	ref, err := core.BuildWith(spec, &core.Options{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("reference build: %w", err)
	}
	st.ref = map[string]map[string]string{}
	for name, vr := range ref.Versions {
		st.ref[name] = vr.Output.Pages
	}
	st.refSeq = st.ds.edits.seq
	return nil
}

// liveDir is where the maintained site is published.
const liveDir = "/site/live"

func checksPass(checks []constraints.Constraint, g *graph.Graph) bool {
	for _, c := range checks {
		if c.CheckSite(g).Verdict == constraints.Violated {
			return false
		}
	}
	return true
}

// wrapLoad times a wrapper invocation under the ambient span. Nil-safe:
// without a tracer the load is returned unwrapped.
func (t *tracer) wrapLoad(load func() (*graph.Graph, error)) func() (*graph.Graph, error) {
	if t == nil {
		return load
	}
	return func() (*graph.Graph, error) {
		s := t.beginAmbient("wrapper.load")
		defer s.end()
		return load()
	}
}

// fileSpec is the org800 spec reading its sources from the dataset's
// files, with optional load wrapping.
func (st *authorState) fileSpec() *core.Spec {
	spec := *st.spec
	spec.Sources = st.ds.fileSources(st.tr.wrapLoad)
	return &spec
}

// build runs one full two-version build and publishes every version to
// a fresh directory, returning the published pages per version. The
// untraced path is core.BuildWith; the traced path calls the same
// stages itself so each gets a span.
func (st *authorState) build(dir string) (map[string]map[string]string, error) {
	if st.tr != nil && st.tr.on.Load() {
		return st.buildStaged(dir)
	}
	res, err := core.BuildWith(st.fileSpec(), nil)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]string{}
	for _, v := range st.spec.Versions {
		vr := res.Versions[v.Name]
		if !vr.ChecksPass {
			return nil, fmt.Errorf("version %s: constraints violated", v.Name)
		}
		if err := vr.Output.Publish(st.pub, filepath.Join(dir, v.Name), nil); err != nil {
			return nil, err
		}
		out[v.Name] = vr.Output.Pages
	}
	return out, nil
}

// buildStaged is core.BuildWith with every stage called explicitly:
// warehouse (with wrapper loads under it), freeze, one evaluation of
// the shared query, then per version constraint checks, rendering and
// publication.
func (st *authorState) buildStaged(dir string) (map[string]map[string]string, error) {
	tr := st.tr
	root := tr.begin("build", nil)
	defer root.end()
	ws := tr.begin("mediator.warehouse", root.ctx())
	restore := ws.asAmbient()
	med, err := mediator.New(st.fileSpec().Sources...)
	var data *repo.Indexed
	if err == nil {
		data, err = med.Warehouse()
	}
	restore()
	ws.end()
	if err != nil {
		return nil, err
	}
	fz := tr.begin("repo.freeze", root.ctx())
	data.Frozen()
	fz.end()

	versions := st.spec.Versions
	queries := make([]*struql.Query, len(versions[0].Queries))
	for i, src := range versions[0].Queries {
		if queries[i], err = struql.Parse(src); err != nil {
			return nil, err
		}
	}
	ev := tr.begin("struql.eval", root.ctx())
	site, err := struql.EvalSeq(queries, data, &struql.Options{Metrics: st.evalObs})
	ev.end()
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]string{}
	for i := range versions {
		v := &versions[i]
		if strings.Join(v.Queries, "\x00") != strings.Join(versions[0].Queries, "\x00") {
			return nil, fmt.Errorf("version %s does not share the site query", v.Name)
		}
		ck := tr.begin("constraints.check", root.ctx())
		var cerr error
		for _, cs := range v.Constraints {
			c, err := constraints.Parse(cs)
			if err != nil {
				cerr = err
				break
			}
			if c.CheckSite(site).Verdict == constraints.Violated {
				cerr = fmt.Errorf("version %s: constraint %q violated", v.Name, cs)
				break
			}
		}
		ck.end()
		if cerr != nil {
			return nil, cerr
		}
		rd := tr.begin("htmlgen.render", root.ctx())
		o, err := render(v, site)
		rd.end()
		if err != nil {
			return nil, err
		}
		pb := tr.begin("htmlgen.publish", root.ctx())
		err = o.Publish(st.pub, filepath.Join(dir, v.Name), nil)
		pb.end()
		if err != nil {
			return nil, err
		}
		out[v.Name] = o.Pages
	}
	return out, nil
}

// render is the generator set-up of core.RenderVersionWith followed by
// Generate.
func render(v *core.Version, site *graph.Graph) (*htmlgen.Output, error) {
	ts := template.NewSet()
	for name, src := range v.Templates {
		if err := ts.Add(name, src); err != nil {
			return nil, err
		}
	}
	gen := htmlgen.New(site, ts)
	for coll, name := range v.PerCollection {
		gen.PerCollection[coll] = name
	}
	for oid, name := range v.PerObject {
		gen.PerObject[graph.OID(oid)] = name
	}
	for prefix, name := range v.ObjectTemplatePrefixes {
		gen.PerPrefix[prefix] = name
	}
	roots := make([]graph.OID, len(v.Roots))
	for i, r := range v.Roots {
		roots[i] = graph.OID(r)
	}
	return gen.Generate(roots)
}

// editOnce applies one fresh source edit the way strudel -watch does:
// write the file, refresh its source, compact the delta, index and
// freeze the new data graph, apply the delta to the maintained site,
// re-check constraints and patch-publish. It returns the delta size.
func (st *authorState) editOnce(e edit, text string) (int, error) {
	tr := st.tr
	root := tr.begin("edit", nil)
	defer root.end()
	if err := os.WriteFile(filepath.Join(st.ds.dir, e.file), []byte(text), 0o644); err != nil {
		return 0, err
	}
	rf := tr.begin("mediator.refresh", root.ctx())
	restore := rf.asAmbient()
	d, err := st.med.Refresh(e.source)
	restore()
	rf.end()
	if err != nil {
		return 0, err
	}
	cp := tr.begin("mediator.compact", root.ctx())
	d.Compact()
	cp.end()
	ix := tr.begin("repo.index", root.ctx())
	data := repo.NewIndexed(st.med.DataGraph())
	ix.end()
	fz := tr.begin("repo.freeze", root.ctx())
	data.Frozen()
	fz.end()
	ap := tr.begin("ivm.apply", root.ctx())
	err = st.site.Apply(data, d)
	ap.end()
	if err != nil {
		return 0, err
	}
	ck := tr.begin("constraints.check", root.ctx())
	ok := checksPass(st.checks, st.site.SiteGraph())
	ck.end()
	if !ok {
		return 0, fmt.Errorf("constraints violated after %s", e.kind)
	}
	pb := tr.begin("ivm.publish", root.ctx())
	err = st.site.Publish(st.pub, liveDir, nil)
	pb.end()
	return d.Size(), err
}

// verifyStorm checks the state after the edit storm: the maintained
// pages must equal a from-scratch build over a fresh warehouse of the
// current files, and the published tree must equal the maintained
// output. It returns the number of mismatching pages of each check.
func (st *authorState) verifyStorm() (pages, tree int, err error) {
	med, err := mediator.New(snapshotSources(st.ds.snapshot())...)
	if err != nil {
		return 0, 0, err
	}
	data, err := med.Warehouse()
	if err != nil {
		return 0, 0, err
	}
	vr, err := core.BuildVersionWith(&st.spec.Versions[0], data, nil)
	if err != nil {
		return 0, 0, err
	}
	got := st.site.Output().Pages
	return diffPages(vr.Output.Pages, got), diffPages(got, st.pub.tree(liveDir)), nil
}

// diffPages counts pages that differ, are missing or are extra.
func diffPages(want, got map[string]string) int {
	bad := 0
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			bad++
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad++
		}
	}
	return bad
}

// authorPhase is one measured stretch of the author workload.
type authorPhase struct {
	buildMS   []float64
	editMS    []float64
	deltas    []float64
	mismatch  int
	attempted int64
	failed    int64
}

// runAuthorPhase makes nBuilds full builds, then edits until the
// deadline (and at least minEdits).
func (st *authorState) runAuthorPhase(nBuilds, minEdits int, deadline time.Time, tag string) (*authorPhase, error) {
	ph := &authorPhase{}
	if st.refSeq != st.ds.edits.seq {
		spec := *st.spec
		spec.Sources = snapshotSources(st.ds.snapshot())
		if err := st.buildRef(&spec); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nBuilds; i++ {
		dir := fmt.Sprintf("/site/build-%s-%d", tag, i)
		t0 := time.Now()
		pages, err := st.build(dir)
		d := time.Since(t0)
		ph.attempted++
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "perfbench: build: %v\n", err)
			continue
		}
		ph.buildMS = append(ph.buildMS, ms(d))
		for name, want := range st.ref {
			ph.mismatch += diffPages(want, pages[name])
			ph.mismatch += diffPages(want, st.pub.tree(filepath.Join(dir, name)))
		}
		st.pub.RemoveAll(dir)
	}
	for n := 0; n < minEdits || time.Now().Before(deadline); n++ {
		e := st.ds.edits.next()
		text := st.ds.render(e.file)
		st.ds.fileText[e.file] = text
		t0 := time.Now()
		size, err := st.editOnce(e, text)
		d := time.Since(t0)
		ph.attempted++
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "perfbench: edit %s: %v\n", e.kind, err)
			continue
		}
		ph.editMS = append(ph.editMS, ms(d))
		ph.deltas = append(ph.deltas, float64(size))
	}
	return ph, nil
}

// runAuthor is the author workload: set up (several times, median
// reported), a measured phase of builds then edits, and the output
// checks. The traced run measures half untraced and half traced.
func runAuthor(c *config) (*report, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var st *authorState
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := setupAuthor(c, filepath.Join(c.work, "author"), tr)
		if err != nil {
			return nil, fmt.Errorf("author set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	rep := newReport()
	rep.metric("setup_s", median(setups), "s")

	total := time.Duration(c.seconds) * time.Second
	nBuilds := max(3, c.seconds*2/5)
	minEdits := 100
	if c.short {
		nBuilds, minEdits = 2, 12
	}
	gc0 := readGC()
	phases := []*authorPhase{}
	var mark obsMark
	if !c.trace {
		ph, err := st.runAuthorPhase(nBuilds, minEdits, time.Now().Add(total), "m")
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	} else {
		half := total / 2
		ph, err := st.runAuthorPhase(max(2, nBuilds/2), minEdits/2, time.Now().Add(half), "u")
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		tr.on.Store(true)
		gc0 = readGC()
		mark = st.markObs()
		ph, err = st.runAuthorPhase(max(2, nBuilds/2), minEdits/2, time.Now().Add(half), "t")
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	gc := readGC().since(gc0)

	// Output checks, outside every timed window.
	stormPages, stormTree, err := st.verifyStorm()
	if err != nil {
		return nil, fmt.Errorf("verifying the edit storm: %w", err)
	}
	buildBad := 0
	for _, ph := range phases {
		buildBad += ph.mismatch
		rep.attempted += ph.attempted
		rep.failed += ph.failed
	}
	mismatches := buildBad + stormPages + stormTree
	rep.correct = mismatches == 0
	rep.line("dataset org800: %d source files, %d pages per version (reference build at Parallelism 1)",
		len(sourceFiles), len(st.ref[st.spec.Versions[0].Name]))
	rep.line("edit mix: %s", st.ds.edits.mix())
	rep.line("ivm: %d deltas applied incrementally, %d full rebuilds", st.ivmObs.DeltasApplied.Load(), st.ivmObs.FullRebuilds.Load())
	rep.line("output checks: %d mismatches (builds vs Parallelism 1 reference: %d; maintained site vs from-scratch build: %d; published tree vs Output.Pages: %d)",
		mismatches, buildBad, stormPages, stormTree)

	main := phases[0]
	b, e := summarize(main.buildMS), summarize(main.editMS)
	rep.line("build_s = %.4f s (median of %d full two-version builds: %s ms)", b.p50/1000, b.n, joinMS(main.buildMS))
	rep.line("edit_ms_p50 = %.4f ms, edit_ms_tail = %.4f ms (%s of %d edits)", e.p50, e.tail, e.tailLabel(), e.n)
	if !c.trace {
		rep.metric("primary_ms_p50", e.p50, "ms")
		rep.metric("secondary_ms_p50", b.p50, "ms")
		rep.metric("heap_mb", st.programHeapMB(), "MiB")
		return rep, nil
	}

	traced := phases[1]
	te := summarize(traced.editMS)
	tb := summarize(traced.buildMS)
	ix := indexSpans(tr.snapshot())
	layers := rep.layers
	layers.set("wrapper.load_ms", mean(ix.durMS("wrapper.load")), "ms")
	layers.set("mediator.warehouse_self_ms", mean(ix.selfMS("mediator.warehouse")), "ms")
	layers.set("mediator.refresh_ms", mean(ix.durMS("mediator.refresh")), "ms")
	layers.set("mediator.delta_events", mean(traced.deltas), "count")
	layers.set("repo.freeze_ms", mean(ix.durMS("repo.freeze")), "ms")
	nEval := float64(len(ix.byName["struql.eval"]))
	layers.set("struql.eval_ms", mean(ix.durMS("struql.eval")), "ms")
	layers.set("struql.rows", perN(sumRows(st.evalObs), nEval), "count")
	layers.set("struql.index_seeks", perN(float64(st.evalObs.IndexSeeks.Load()), nEval), "count")
	layers.set("struql.full_scans", perN(float64(st.evalObs.FullScans.Load()), nEval), "count")
	layers.set("constraints.check_ms", mean(ix.durMS("constraints.check")), "ms")
	layers.set("htmlgen.render_ms", mean(ix.durMS("htmlgen.render")), "ms")
	layers.set("htmlgen.pages", float64(len(st.ref[st.spec.Versions[0].Name])), "count")
	layers.set("htmlgen.publish_ms", mean(ix.durMS("htmlgen.publish")), "ms")
	layers.set("htmlgen.bytes_written", float64(siteBytes(st.ref)), "bytes")
	applied := mark.since(&st.ivmObs.DeltasApplied)
	rebuilds := mark.since(&st.ivmObs.FullRebuilds)
	edits := float64(len(traced.editMS))
	layers.set("ivm.apply_ms", mean(ix.durMS("ivm.apply")), "ms")
	layers.set("ivm.incremental_ratio", perN(applied, applied+rebuilds), "ratio")
	layers.set("ivm.dirty_pages_per_edit", perN(mark.since(&st.ivmObs.DirtyPages), edits), "count")
	for k := 0; k < obs.NumBailoutReasons; k++ {
		layers.set("ivm.bailouts."+obs.BailoutName(k), mark.since(&st.ivmObs.Bailouts[k]), "count")
	}
	layers.set("ivm.publish_ms", mean(ix.durMS("ivm.publish")), "ms")
	layers.set("ivm.pages_written", perN(mark.since(&st.ivmObs.PagesWritten), edits), "count")
	layers.set("ivm.pages_linked", perN(mark.since(&st.ivmObs.PagesLinked), edits), "count")
	gc.set(layers)

	rep.reconcile(ix, "edit", nil, reconcileTolerance)
	rep.reconcile(ix, "build", nil, reconcileTolerance)
	rep.line("tracing overhead: edit p50 %.4f ms traced vs %.4f ms untraced (%+.4f ms); build p50 %.4f ms vs %.4f ms (%+.4f ms)",
		te.p50, e.p50, te.p50-e.p50, tb.p50, b.p50, tb.p50-b.p50)
	return rep, rep.writeSpans(c, tr)
}

// programHeapMB releases what only the benchmark holds — the reference
// build, the in-memory published trees (bytes that would sit in tmpfs,
// not in the program's heap), the dataset model and the spec's
// in-memory sources — and returns the live heap of what remains: the
// mediator and the maintained site. The author state is unusable
// afterwards.
func (st *authorState) programHeapMB() float64 {
	st.ref, st.pub, st.ds, st.spec.Sources = nil, nil, nil, nil
	mb := liveHeapMB()
	runtime.KeepAlive(st) // else the collection frees the program's state too
	return mb
}

// markObs marks the obs counters the edit-path layer metrics read.
func (st *authorState) markObs() obsMark {
	m := st.ivmObs
	cs := []*obs.Counter{&m.DeltasApplied, &m.FullRebuilds, &m.DirtyPages, &m.PagesWritten, &m.PagesLinked}
	for k := range m.Bailouts {
		cs = append(cs, &m.Bailouts[k])
	}
	return markCounters(cs...)
}

func sumRows(m *obs.EvalMetrics) float64 {
	t := int64(0)
	for k := 0; k < obs.NumOps; k++ {
		t += m.RowsOut[k].Load()
	}
	return float64(t)
}

func perN(v, n float64) float64 {
	if n == 0 {
		return 0
	}
	return v / n
}

// siteBytes is the mean size of one published version.
func siteBytes(pages map[string]map[string]string) int {
	total := 0
	for _, v := range pages {
		for _, body := range v {
			total += len(body)
		}
	}
	return total / len(pages)
}

func joinMS(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.1f", v)
	}
	return strings.Join(parts, " ")
}
