package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"strudel/internal/ddl"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/synth"
	"strudel/internal/wrapper/bibtex"
	"strudel/internal/wrapper/csvrel"
	"strudel/internal/wrapper/htmlwrap"
)

// org800 is the dataset every workload runs on: the E1 organization
// site at 800 people, sites.OrgSite(800, 41, 81, 101).
const (
	nPeople   = 800
	nOrgs     = 41
	nProjects = 81
	nPubs     = 101
)

// source files of the dataset, one per mediator source; the names match
// the sources of sites.OrgSite.
var sourceFiles = []struct{ name, file string }{
	{"people", "people.csv"},
	{"orgs", "orgs.csv"},
	{"projects", "projects.ddl"},
	{"publications", "publications.bib"},
	{"bios", "bios.html"},
}

// bioSep separates the documents of the bios source file.
const bioSep = "<!-- perfbench:doc "

// dataset is org800 as source files on disk plus the in-memory model
// the edit generator mutates. Files are rewritten whole on every edit.
type dataset struct {
	dir      string
	org      *synth.OrgData
	bibHead  string
	bib      []bibEntry
	bios     string
	edits    *editGen
	fileText map[string]string // last written text per file name
}

type bibEntry struct {
	text  string
	added bool // added by the edit stream (removable)
}

// newDataset generates org800 and writes its source files under dir.
func newDataset(dir string, seed int64) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &dataset{dir: dir, org: synth.Organization(nPeople, nOrgs, nProjects),
		fileText: map[string]string{}}
	d.bibHead, d.bib = splitBib(synth.Bibliography(nPubs, "att"))
	var b strings.Builder
	for _, a := range d.org.BioPages() {
		fmt.Fprintf(&b, "%s%s -->\n%s\n", bioSep, a.Name, a.HTML)
	}
	d.bios = b.String()
	d.edits = newEditGen(d, seed)
	for _, sf := range sourceFiles {
		if err := d.write(sf.file); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// splitBib splits a generated bibliography into its @string preamble
// and one text per entry.
func splitBib(src string) (string, []bibEntry) {
	chunks := strings.Split(src, "\n@")
	head := chunks[0] + "\n"
	var out []bibEntry
	for _, c := range chunks[1:] {
		text := "@" + c
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		out = append(out, bibEntry{text: text})
	}
	return head, out
}

// render returns the current text of one source file.
func (d *dataset) render(file string) string {
	switch file {
	case "people.csv":
		return d.org.PeopleCSV()
	case "orgs.csv":
		return d.org.OrgsCSV()
	case "projects.ddl":
		return d.org.ProjectsDDL()
	case "publications.bib":
		var b strings.Builder
		b.WriteString(d.bibHead)
		for _, e := range d.bib {
			b.WriteString("\n")
			b.WriteString(e.text)
		}
		return b.String()
	case "bios.html":
		return d.bios
	}
	panic("perfbench: unknown source file " + file)
}

func (d *dataset) write(file string) error {
	text := d.render(file)
	d.fileText[file] = text
	return os.WriteFile(filepath.Join(d.dir, file), []byte(text), 0o644)
}

// snapshot copies the current text of every source file.
func (d *dataset) snapshot() map[string]string {
	out := make(map[string]string, len(d.fileText))
	for k, v := range d.fileText {
		out[k] = v
	}
	return out
}

// loader returns the wrapper invocation for one source over a file
// reader, with the wrapper options sites.OrgSite uses.
func loader(name string, read func() (string, error)) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		src, err := read()
		if err != nil {
			return nil, err
		}
		switch name {
		case "people":
			return csvrel.Load(src, csvrel.Options{Table: "People", KeyColumn: "id",
				Refs: map[string]string{"org": "Orgs"}})
		case "orgs":
			return csvrel.Load(src, csvrel.Options{Table: "Orgs", KeyColumn: "id",
				Refs: map[string]string{"director": "People"}})
		case "projects":
			return ddlGraph(src)
		case "publications":
			return bibtex.Load(src, bibtex.DefaultOptions())
		case "bios":
			return htmlwrap.Wrap(extractDocs(src), htmlwrap.Options{Collection: "Bios"}), nil
		}
		return nil, fmt.Errorf("perfbench: unknown source %q", name)
	}
}

func extractDocs(src string) []*htmlwrap.Page {
	parts := strings.Split(src, bioSep)
	pages := make([]*htmlwrap.Page, 0, len(parts))
	for _, p := range parts[1:] {
		name, body, _ := strings.Cut(p, " -->\n")
		pages = append(pages, htmlwrap.Extract(name, strings.TrimSuffix(body, "\n")))
	}
	return pages
}

// fileReader reads one source file of the dataset directory.
func fileReader(dir, file string) func() (string, error) {
	return func() (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, file))
		return string(b), err
	}
}

// textReader serves a fixed text (reference builds over a snapshot).
func textReader(text string) func() (string, error) {
	return func() (string, error) { return text, nil }
}

// fileSources returns the mediator sources over the dataset's files.
// wrap, when non-nil, wraps each Load (the traced run's timing hook).
func (d *dataset) fileSources(wrap func(func() (*graph.Graph, error)) func() (*graph.Graph, error)) []mediator.Source {
	out := make([]mediator.Source, len(sourceFiles))
	for i, sf := range sourceFiles {
		load := loader(sf.name, fileReader(d.dir, sf.file))
		if wrap != nil {
			load = wrap(load)
		}
		out[i] = mediator.Source{Name: sf.name, Load: load}
	}
	return out
}

// snapshotSources returns mediator sources over a snapshot of the files.
func snapshotSources(files map[string]string) []mediator.Source {
	out := make([]mediator.Source, len(sourceFiles))
	for i, sf := range sourceFiles {
		out[i] = mediator.Source{Name: sf.name, Load: loader(sf.name, textReader(files[sf.file]))}
	}
	return out
}

// edit is one seeded source-level change.
type edit struct {
	kind   string
	source string // mediator source name
	file   string
}

// Edit kinds, one per source-level change the benchmark makes: a CSV
// person's name or org, adding or removing a person row, adding or
// removing a BibTeX entry, and a DDL project field. Every edit writes
// a value never seen before (the edit's sequence number is part of
// it), so no edit replays an earlier state.
var editKinds = []string{
	"person_rename",
	"person_move_org",
	"person_add",
	"person_remove",
	"bib_add",
	"bib_remove",
	"project_field",
}

// removalFallback is the edit made when a removal finds fewer than two
// rows the stream added.
var removalFallback = map[string]string{"person_remove": "person_add", "bib_remove": "bib_add"}

// editGen makes seeded, fresh source edits against a dataset. Every
// kind has an equal share: kinds come in blocks holding each kind once,
// shuffled by the seed, so only the order, targets and values vary.
// Removals only take rows the stream itself added, so the page pool
// crawled at generation 0 stays valid for every later generation, and
// only the oldest of at least two, so no removal restores an earlier
// state; a removal that finds fewer falls back to the matching add.
type editGen struct {
	d      *dataset
	rng    *rand.Rand
	seq    int
	block  []string
	people int // next person number
	pubs   int // next publication number
	added  []int
	counts map[string]int
}

func newEditGen(d *dataset, seed int64) *editGen {
	return &editGen{d: d, rng: rand.New(rand.NewSource(seed*7919 + 17)),
		people: nPeople, pubs: nPubs, counts: map[string]int{}}
}

// next applies one edit to the in-memory model and returns it; the
// caller writes its file.
func (g *editGen) next() edit {
	g.seq++
	if len(g.block) == 0 {
		g.block = append(g.block, editKinds...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	e, ok := g.make(kind)
	if !ok {
		kind = removalFallback[kind]
		e, _ = g.make(kind)
	}
	g.counts[kind]++
	return e
}

// make mutates the model for one edit kind; false when a removal finds
// fewer than two stream-added rows.
func (g *editGen) make(kind string) (edit, bool) {
	d, r := g.d, g.rng
	tag := fmt.Sprintf("e%d", g.seq)
	org := d.org
	switch kind {
	case "person_rename":
		p := &org.People[r.Intn(len(org.People))]
		p.Name = fmt.Sprintf("%s %s", strings.Fields(p.Name)[0], tag)
		return edit{kind, "people", "people.csv"}, true
	case "person_move_org":
		p := &org.People[r.Intn(len(org.People))]
		p.Org = org.Orgs[r.Intn(len(org.Orgs))].ID
		p.Office = fmt.Sprintf("%c-%s", 'A'+byte(r.Intn(4)), tag)
		return edit{kind, "people", "people.csv"}, true
	case "person_add":
		id := fmt.Sprintf("p%04d", g.people)
		g.people++
		org.People = append(org.People, synth.Person{
			ID:     id,
			Name:   "New Hire " + tag,
			Office: fmt.Sprintf("%c-%s", 'A'+byte(r.Intn(4)), tag),
			Org:    org.Orgs[r.Intn(len(org.Orgs))].ID,
			Area:   org.Projects[r.Intn(len(org.Projects))].Area,
		})
		g.added = append(g.added, len(org.People)-1)
		return edit{kind, "people", "people.csv"}, true
	case "person_remove":
		// Removing the oldest of at least two added rows leaves a set of
		// rows no earlier state had; removing the only one would restore
		// the state before it was added.
		if len(g.added) < 2 {
			return edit{}, false
		}
		idx := g.added[0]
		g.added = g.added[1:]
		org.People = append(org.People[:idx], org.People[idx+1:]...)
		for i := range g.added {
			if g.added[i] > idx {
				g.added[i]--
			}
		}
		return edit{kind, "people", "people.csv"}, true
	case "bib_add":
		key := fmt.Sprintf("att%03d", g.pubs)
		g.pubs++
		text := fmt.Sprintf("@inproceedings{%s,\n  title = {Fresh Results %s},\n  author = {%s},\n  year = %d,\n  booktitle = sigmod,\n  postscript = {ps/%s.ps},\n  category = {%s},\n}\n",
			key, tag, strings.Join(strings.Fields(org.People[r.Intn(len(org.People))].Name)[:1], ""),
			1989+r.Intn(10), key, org.Projects[r.Intn(len(org.Projects))].Area)
		d.bib = append(d.bib, bibEntry{text: text, added: true})
		return edit{kind, "publications", "publications.bib"}, true
	case "bib_remove":
		// As for people: the oldest of at least two added entries.
		var idx []int
		for i, e := range d.bib {
			if e.added {
				idx = append(idx, i)
			}
		}
		if len(idx) < 2 {
			return edit{}, false
		}
		i := idx[0]
		d.bib = append(d.bib[:i], d.bib[i+1:]...)
		return edit{kind, "publications", "publications.bib"}, true
	case "project_field":
		p := &org.Projects[r.Intn(len(org.Projects))]
		switch r.Intn(3) {
		case 0:
			p.Synopsis = fmt.Sprintf("%s revisits its goals (%s).", p.Name, tag)
		case 1:
			p.Sponsor = "Grant-" + tag
		default:
			p.Name = fmt.Sprintf("%s-%s", strings.Split(p.Name, "-")[0], tag)
		}
		return edit{kind, "projects", "projects.ddl"}, true
	}
	panic("perfbench: unknown edit kind " + kind)
}

// mix formats the per-kind edit counts.
func (g *editGen) mix() string {
	var parts []string
	for _, k := range editKinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, g.counts[k]))
	}
	return strings.Join(parts, " ")
}

func ddlGraph(src string) (*graph.Graph, error) {
	doc, err := ddl.Parse(src)
	if err != nil {
		return nil, err
	}
	return doc.Graph, nil
}
