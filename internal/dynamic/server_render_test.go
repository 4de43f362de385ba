package dynamic

import (
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// embedQuery builds pages that embed other dynamic pages, reference
// data-graph objects, and carry file attributes — exercising the server's
// renderer paths.
const embedQuery = `
create Root()
link Root() -> "title" -> "Dyn"

where Items(x)
create Card(x)
link Root() -> "Card" -> Card(x),
     Card(x) -> "self" -> x
{
  where x -> "name" -> n
  link Card(x) -> "name" -> n
}
{
  where x -> "pic" -> p
  link Card(x) -> "pic" -> p
}
`

func embedData() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Items", "i1")
	g.AddEdge("i1", "name", graph.NewString("First"))
	g.AddEdge("i1", "pic", graph.NewFile(graph.FileImage, "p.gif"))
	g.AddEdge("i1", "doc", graph.NewFile(graph.FilePostScript, "d.ps"))
	return g
}

func TestServerEmbedsDynamicPages(t *testing.T) {
	q := struql.MustParse(embedQuery)
	ev := NewEvaluator(schema.Build(q), struql.NewGraphSource(embedData()))
	ts := template.NewSet()
	ts.MustAdd("header", `<i>dyn</i>`)
	ts.MustAdd("Root", `<SINCLUDE header><h1><SFMT title></h1><SFMT Card EMBED UL>`)
	ts.MustAdd("Card", `[<SFMT name>|<SFMT pic>|<SFMT self EMBED>]`)
	srv := NewServer(ev, ts)
	srv.PerFn["Root"] = "Root"
	srv.PerFn["Card"] = "Card"
	out, err := srv.RenderPage(PageRef{Fn: "Root"})
	if err != nil {
		t.Fatal(err)
	}
	// SINCLUDE resolved.
	if !strings.Contains(out, "<i>dyn</i>") {
		t.Errorf("include missing:\n%s", out)
	}
	// Embedded dynamic Card page rendered inline.
	if !strings.Contains(out, "[First|") {
		t.Errorf("embedded card missing:\n%s", out)
	}
	// File atom rendered as an img tag.
	if !strings.Contains(out, `<img src="p.gif">`) {
		t.Errorf("image missing:\n%s", out)
	}
	// Embedded data-graph object (self) rendered as attribute dump,
	// including the postscript link path.
	if !strings.Contains(out, "name: First") {
		t.Errorf("data-object embed missing:\n%s", out)
	}
}

func TestServerEmbedWithoutTemplateUsesListing(t *testing.T) {
	q := struql.MustParse(embedQuery)
	ev := NewEvaluator(schema.Build(q), struql.NewGraphSource(embedData()))
	ts := template.NewSet()
	ts.MustAdd("Root", `<SFMT Card EMBED>`)
	srv := NewServer(ev, ts)
	srv.PerFn["Root"] = "Root"
	out, err := srv.RenderPage(PageRef{Fn: "Root"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<dt>name</dt><dd>First</dd>") {
		t.Errorf("default listing for embedded page missing:\n%s", out)
	}
}

func TestServerRenderFilePostScript(t *testing.T) {
	r := &dynRenderer{}
	out, err := r.RenderFile(graph.NewFile(graph.FilePostScript, "x.ps"), false)
	if err != nil || !strings.Contains(out, `<a href="x.ps">`) {
		t.Errorf("out = %q, err = %v", out, err)
	}
}

func TestPathDepsVariants(t *testing.T) {
	set := map[string]bool{}
	pathDeps(struql.MustParsePathExpr(`("a"|"b")."c"*`), set)
	if !set["label:a"] || !set["label:b"] || !set["label:c"] {
		t.Errorf("deps = %v", set)
	}
	set2 := map[string]bool{}
	pathDeps(struql.MustParsePathExpr(`~"x.*"`), set2)
	if !set2["*"] {
		t.Errorf("regex pred should be *, got %v", set2)
	}
	set3 := map[string]bool{}
	pathDeps(struql.MustParsePathExpr(`_`), set3)
	if !set3["*"] {
		t.Errorf("any pred should be *, got %v", set3)
	}
}
