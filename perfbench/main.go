// Command perfbench is Strudel's benchmark: one dataset (org800, the
// E1 organization site at 800 people) and three workloads that drive
// the public entry points of every layer.
//
//	author       closed loop, one author: full two-version builds, then
//	             a storm of fresh source edits through the incremental
//	             site (the strudel -watch sequence). No HTTP.
//	browse       open loop, Poisson arrivals over loopback HTTP to a 2×2
//	             fleet behind fleet.Edge with the query API mounted:
//	             zipf page GETs plus 10% /query POSTs at 1000 req/s,
//	             then a capacity ladder.
//	browse_edit  the same traffic at 1000 req/s plus one source edit per
//	             second picked up by dynamic.Reloader.Tick.
//
// Usage:
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 the run measures half untraced
// and half traced and reports the per-layer metrics, the reconciliation
// of layer self times against the end-to-end figure, and the tracing
// overhead. Every run checks its outputs against in-process references
// and reports the mismatch count. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// The largest share of an end-to-end span that may go unclaimed by
// layer spans, or be claimed twice, in the traced run: for builds and
// edits, and for requests, whose transport is a payload-free probe's
// (full-size traced runs claim 89–95% of page and query time).
const (
	reconcileTolerance = 0.10
	requestTolerance   = 0.15
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
	// bench is BENCHMARK.json, which names the per-layer metrics and
	// their units.
	bench string
	conns int
	// short shrinks minimum counts for smoke tests.
	short bool
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "author | browse | browse_edit")
	flag.Int64Var(&c.seed, "seed", 1, "seed for edits, page popularity, the query pool and arrival times")
	flag.IntVar(&c.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for source files, published sites and spans")
	flag.StringVar(&c.bench, "benchmark", "BENCHMARK.json", "the benchmark description naming the per-layer metrics")
	flag.Parse()
	c.trace = trace == 1
	c.conns = runtime.NumCPU()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if c.seconds < 2 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -seconds >= 2 and -trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

func run(c *config) (*report, error) {
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	var layers []layerMetric
	if c.trace {
		var err error
		if layers, err = readLayerMetrics(c.bench); err != nil {
			return nil, err
		}
	}
	var rep *report
	var err error
	steal0 := readSteal()
	switch c.workload {
	case "author":
		rep, err = runAuthor(c)
	case "browse":
		rep, err = runServe(c, false)
	case "browse_edit":
		rep, err = runServe(c, true)
	default:
		return nil, fmt.Errorf("unknown -workload %q (author, browse, browse_edit)", c.workload)
	}
	if err != nil {
		return nil, err
	}
	// Every traced run reports every per-layer metric; a layer the
	// workload never calls reads 0.
	for _, l := range layers {
		if _, ok := rep.layers[l.Name]; !ok {
			rep.layers.set(l.Name, 0, l.Unit)
		}
	}
	rep.meta = []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v", c.workload, c.seed, c.seconds, c.trace),
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit()),
		fmt.Sprintf("dataset=org800 people=%d orgs=%d projects=%d pubs=%d publish_fs=in-memory fsx.FS (tmpfs stand-in) work_fs=%s",
			nPeople, nOrgs, nProjects, nPubs, fsType(c.work)),
		fmt.Sprintf("host_steal=%s of CPU time during the run (time the hypervisor ran other guests)", readSteal().since(steal0)),
	}
	return rep, nil
}

// layerMetric is one per_layer entry of BENCHMARK.json.
type layerMetric struct{ Name, Unit string }

// readLayerMetrics reads the per-layer metric names and units.
func readLayerMetrics(path string) ([]layerMetric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj struct {
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bj.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no per-layer metrics", path)
	}
	return bj.PerLayer, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report collects a run's result: the metrics of its mode, the
// operation counts, and human-readable lines printed before the JSON.
type report struct {
	correct           bool
	attempted, failed int64
	e2e, layers       metricSet
	lines, meta       []string
	spans             string
}

func newReport() *report { return &report{e2e: metricSet{}, layers: metricSet{}} }

func (r *report) metric(name string, v float64, unit string) { r.e2e.set(name, v, unit) }

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// reconcile prints how the layer self times under one kind of root
// span add up to its mean end-to-end time, and whether the part no
// layer claims stays within the tolerance tol. est replaces the self
// time of the spans it names with an estimate measured apart, claimed
// once per root: a span whose self time is only the remainder of its
// children would otherwise make the layers claim everything.
func (r *report) reconcile(ix *spanIndex, root string, est map[string]float64, tol float64) {
	meanMS, parts, n := ix.breakdown(root)
	if n == 0 {
		r.line("reconcile %s: no spans", root)
		return
	}
	for name, v := range est {
		delete(parts, name)
		parts[name+" (timed apart)"] = v
	}
	names := make([]string, 0, len(parts))
	sum := 0.0
	for k, v := range parts {
		names = append(names, k)
		sum += v
	}
	sort.Strings(names)
	terms := make([]string, len(names))
	for i, k := range names {
		terms[i] = fmt.Sprintf("%s %.4f", k, parts[k])
	}
	share := sum / meanMS
	verdict := "within"
	if share < 1-tol || share > 1+tol {
		verdict = "OUTSIDE"
	}
	r.line("reconcile %s (n=%d): mean %.4f ms = %s + unclaimed %.4f ms; layers claim %.2f%%, %s the %.0f%% tolerance",
		root, n, meanMS, strings.Join(terms, " + "), meanMS-sum, share*100, verdict, tol*100)
}

func (r *report) writeSpans(c *config, tr *tracer) error {
	r.spans = filepath.Join(c.work, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	return tr.writeJSONL(r.spans)
}

func (r *report) print(f *os.File) {
	for _, l := range r.meta {
		fmt.Fprintln(f, "#", l)
	}
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "fail_ratio = %.6f (%d failed of %d attempted)\n", ratio, r.failed, r.attempted)
	ms := r.e2e
	if r.spans != "" {
		ms = r.layers
		fmt.Fprintf(f, "spans written to %s\n", r.spans)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%s = %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(f, string(out))
}

// gcSample is a runtime/metrics reading of GC CPU time and pauses.
type gcSample struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	g := gcSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[2].Value.Float64Histogram()
	}
	return g
}

// gcDelta is the GC cost between two samples.
type gcDelta struct {
	cpuFraction float64
	pauseP99MS  float64
}

func (g gcSample) since(old gcSample) gcDelta {
	d := gcDelta{}
	if cpu := g.totalCPU - old.totalCPU; cpu > 0 {
		d.cpuFraction = (g.gcCPU - old.gcCPU) / cpu
	}
	if g.pauses != nil && old.pauses != nil {
		counts := make([]uint64, len(g.pauses.Counts))
		var n uint64
		for i := range counts {
			counts[i] = g.pauses.Counts[i] - old.pauses.Counts[i]
			n += counts[i]
		}
		if n > 0 {
			rank := uint64(float64(n)*0.99 + 0.999999)
			var seen uint64
			for i, c := range counts {
				seen += c
				if seen >= rank {
					// Report the bucket's upper bound, or its lower
					// bound for the open-ended last bucket.
					hi := g.pauses.Buckets[i+1]
					if math.IsInf(hi, 1) {
						hi = g.pauses.Buckets[i]
					}
					d.pauseP99MS = hi * 1000
					break
				}
			}
		}
	}
	return d
}

func (d gcDelta) set(m metricSet) {
	m.set("runtime.gc_cpu_fraction", d.cpuFraction, "ratio")
	m.set("runtime.gc_pause_ms_p99", d.pauseP99MS, "ms")
}

// liveHeapMB is the live heap after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// commit names the source revision when the benchmark runs from a git
// checkout (read directly, no subprocess), else "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(r)))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch uint64(s.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(s.Type))
}

// stealSample is the machine-wide CPU time counters of /proc/stat.
type stealSample struct{ steal, total int64 }

// readSteal reads the aggregate CPU line of /proc/stat; zero where
// there is none.
func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return stealSample{}
		}
		if i == 7 { // user nice system idle iowait irq softirq steal
			s.steal = n
		}
		if i < 8 {
			s.total += n
		}
	}
	return s
}

func (s stealSample) since(old stealSample) string {
	if s.total <= old.total {
		return "unknown"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(s.steal-old.steal)/float64(s.total-old.total))
}
