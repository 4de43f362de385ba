package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// smoke runs one workload at a short size and checks the result shape
// every run must have.
func smoke(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	c := &config{workload: workload, seed: 11, seconds: 3, trace: trace,
		work: t.TempDir(), bench: "../BENCHMARK.json", conns: runtime.NumCPU(), short: true}
	rep, err := run(c)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.correct {
		t.Fatalf("%s: output check reported mismatches:\n%s", workload, strings.Join(rep.lines, "\n"))
	}
	if rep.attempted < 1 || rep.failed != 0 {
		t.Fatalf("%s: attempted %d, failed %d", workload, rep.attempted, rep.failed)
	}
	return rep
}

func TestSmokeWorkloads(t *testing.T) {
	names := benchmarkJSON(t)
	for _, w := range names.workloads {
		w := w
		t.Run(w, func(t *testing.T) {
			rep := smoke(t, w, false)
			for _, m := range names.endToEnd {
				v, ok := rep.e2e[m]
				if !ok {
					t.Errorf("end-to-end metric %s missing", m)
				} else if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m, v.Value)
				}
			}
			// The mediator and maintained site, or the fleet, of org800
			// take several MiB; less means the collection freed them.
			if v := rep.e2e["heap_mb"].Value; v < 1 {
				t.Errorf("heap_mb = %v MiB: the program's state was not kept live", v)
			}
			if len(rep.e2e) != len(names.endToEnd) {
				t.Errorf("reported %d end-to-end metrics, BENCHMARK.json names %d", len(rep.e2e), len(names.endToEnd))
			}
		})
		t.Run(w+"/traced", func(t *testing.T) {
			rep := smoke(t, w, true)
			for _, m := range names.perLayer {
				if _, ok := rep.layers[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			if len(rep.layers) != len(names.perLayer) {
				t.Errorf("reported %d per-layer metrics, BENCHMARK.json names %d", len(rep.layers), len(names.perLayer))
			}
			text := strings.Join(rep.lines, "\n")
			for _, want := range []string{"reconcile ", "tracing overhead:"} {
				if !strings.Contains(text, want) {
					t.Errorf("traced run does not print %q", want)
				}
			}
			// Builds and edits must reconcile even in a short run. A
			// request's transport is the mean of the probes among its
			// traffic, too few in a short run to hold the tolerance;
			// full-size traced runs show those reconciliations.
			for _, l := range rep.lines {
				if strings.Contains(l, "OUTSIDE") && !strings.HasPrefix(l, "reconcile client.") {
					t.Errorf("layer self times do not reconcile: %s", l)
				}
			}
			checkSpanFile(t, rep.spans)
		})
	}
}

// TestEditsAreFresh runs the edit generator long enough to exercise
// every kind and checks that no edit reproduces an earlier file state.
func TestEditsAreFresh(t *testing.T) {
	ds, err := newDataset(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, text := range ds.fileText {
		seen[text] = true
	}
	for i := 0; i < 400; i++ {
		e := ds.edits.next()
		text := ds.render(e.file)
		if seen[text] {
			t.Fatalf("edit %d (%s) replays an earlier state of %s", i, e.kind, e.file)
		}
		seen[text] = true
		ds.fileText[e.file] = text
	}
	for _, k := range editKinds {
		if ds.edits.counts[k] == 0 {
			t.Errorf("edit kind %s never drawn in 400 edits", k)
		}
	}
	if a, b := editSeq(t, 5, 20), editSeq(t, 5, 20); a != b {
		t.Error("the same seed gave different edit streams")
	}
	if editSeq(t, 5, 20) == editSeq(t, 6, 20) {
		t.Error("different seeds gave the same edit stream")
	}
}

// editSeq summarizes the first n edits of a seed's stream.
func editSeq(t *testing.T, seed int64, n int) string {
	ds, err := newDataset(t.TempDir(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		e := ds.edits.next()
		fmt.Fprintf(&b, "%s:%d;", e.kind, len(ds.render(e.file)))
	}
	return b.String()
}

type benchNames struct {
	workloads, endToEnd, perLayer []string
}

// benchmarkJSON reads the workload and metric names from the
// repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) benchNames {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var n benchNames
	for _, w := range bj.Workloads {
		n.workloads = append(n.workloads, w.Name)
	}
	for _, m := range bj.EndToEnd {
		n.endToEnd = append(n.endToEnd, m.Name)
	}
	layers, err := readLayerMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layers {
		n.perLayer = append(n.perLayer, l.Name)
	}
	return n
}

const tableStart, tableEnd = "<!-- layer table start -->\n", "<!-- layer table end -->"

// TestReadmeLayerTable checks that the checked-in mapping of per-layer
// to end-to-end metrics in README.md has one row per per-layer metric
// of BENCHMARK.json, in its order and with its unit.
func TestReadmeLayerTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	i, j := strings.Index(text, tableStart), strings.Index(text, tableEnd)
	if i < 0 || j < i {
		t.Fatal("README.md has no layer table markers")
	}
	rows := strings.Split(strings.TrimSpace(text[i+len(tableStart):j]), "\n")[2:] // header, rule
	want, err := readLayerMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("README.md table has %d rows, BENCHMARK.json %d per-layer metrics", len(rows), len(want))
	}
	for k, row := range rows {
		cells := strings.Split(row, "|")
		if len(cells) != 8 {
			t.Fatalf("README.md table row %q: want 6 cells", row)
		}
		name, unit := strings.Trim(strings.TrimSpace(cells[1]), "`"), strings.TrimSpace(cells[2])
		if name != want[k].Name || unit != want[k].Unit {
			t.Errorf("README.md table row %d is %s (%s), BENCHMARK.json has %s (%s)", k, name, unit, want[k].Name, want[k].Unit)
		}
	}
}

// checkSpanFile checks the traced run's JSON Lines dump: every span
// closes after it opens, and every child names a recorded parent and
// shares its trace ID.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]spanRec{}
	var spans []spanRec
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s spanRec
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("the traced run wrote no spans")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %s names parent %d, which was not recorded", s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			t.Fatalf("span %s has trace %d, its parent %s trace %d", s.Name, s.Trace, p.Name, p.Trace)
		}
	}
}
