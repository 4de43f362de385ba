package dynamic

import (
	"context"
	"fmt"
	"html"
	"net/url"
	"strings"

	"strudel/internal/graph"
	"strudel/internal/template"
)

// Server renders a Strudel site's pages at click time: every render
// evaluates (or reuses from cache) the incremental queries of the
// requested page and renders it through the same template language the
// static generator uses. It has no HTTP surface of its own; fleet
// replicas render through it behind fleet.Edge, the production front
// door, and reference oracles call it directly.
type Server struct {
	Ev        *Evaluator
	Templates *template.Set
	// PerFn selects a template per Skolem function name.
	PerFn map[string]string
	// Default names a fallback template; empty uses a built-in listing.
	Default string
	// PageURLFunc, when non-nil, overrides the URL scheme used for links
	// between pages. The fleet sets a self-describing ref encoding
	// (function name + argument keys) so any shard replica can resolve a
	// page it has never computed; nil keeps the single-server oid scheme.
	// Set before rendering; read without synchronization.
	PageURLFunc func(ref PageRef, oid graph.OID) string
}

// NewServer returns a renderer over an evaluator and templates.
func NewServer(ev *Evaluator, ts *template.Set) *Server {
	return &Server{Ev: ev, Templates: ts, PerFn: map[string]string{}}
}

// RenderPage computes and renders one page.
func (s *Server) RenderPage(ref PageRef) (string, error) {
	return s.RenderPageCtx(context.Background(), ref)
}

// RenderPageCtx renders one page under a request context. The whole
// render — the page's own queries, embedded pages, and data-graph
// attribute reads — runs against one state snapshot, so a hot reload
// mid-request never produces a page mixing two data generations.
func (s *Server) RenderPageCtx(ctx context.Context, ref PageRef) (string, error) {
	html, _, err := s.RenderPageGen(ctx, ref)
	return html, err
}

// RenderPageGen is RenderPageCtx, additionally reporting the data
// generation of the snapshot every byte of the page was computed from.
// The fleet edge keys its cache entries and ETags by this generation:
// because the render never leaves the snapshot, a (generation, page)
// pair fully determines the bytes.
func (s *Server) RenderPageGen(ctx context.Context, ref PageRef) (string, int64, error) {
	st := s.Ev.snapshot()
	pd, err := s.Ev.pageIn(ctx, st, ref, s.Ev.Lookahead)
	if err != nil {
		return "", st.gen, err
	}
	r := &dynRenderer{s: s, ctx: ctx, st: st, stack: []graph.OID{pd.OID}}
	t := s.selectTemplate(ref.Fn)
	if t == nil {
		html, err := r.defaultRender(pd)
		return html, st.gen, err
	}
	html, err := template.Render(t, pd.OID, dynSite{r: r}, r)
	return html, st.gen, err
}

func (s *Server) selectTemplate(fn string) *template.Template {
	if name, ok := s.PerFn[fn]; ok {
		if t := s.Templates.Get(name); t != nil {
			return t
		}
	}
	if s.Default != "" {
		return s.Templates.Get(s.Default)
	}
	return nil
}

// dynSite adapts the evaluator to the template evaluator's Site view:
// dynamic pages answer from their computed edges; data-graph objects
// (reached through NS edges) answer from the data source. All reads go
// through the renderer's state snapshot.
type dynSite struct {
	r *dynRenderer
}

func (d dynSite) OutLabel(oid graph.OID, label string) []graph.Value {
	if ref, ok := d.r.s.Ev.RefFor(oid); ok {
		pd, err := d.r.s.Ev.pageIn(d.r.ctx, d.r.st, ref, false)
		if err != nil {
			return nil
		}
		var out []graph.Value
		for _, e := range pd.Out {
			if e.Label == label {
				out = append(out, e.To)
			}
		}
		return out
	}
	return d.r.st.src.OutLabel(oid, label)
}

// dynRenderer renders references as click-time URLs. It carries the
// request context and the state snapshot so every read in one render sees
// one data generation, and it tracks the stack of pages being embedded to
// cut true embed cycles.
type dynRenderer struct {
	s   *Server
	ctx context.Context
	st  *evalState
	// stack holds the page oids currently being rendered, outermost
	// first; an embed of any of them is a cycle.
	stack []graph.OID
}

// LookupTemplate resolves SINCLUDE names against the server's set.
func (r *dynRenderer) LookupTemplate(name string) *template.Template {
	return r.s.Templates.Get(name)
}

// PageURL returns the click-time URL of a page oid.
func PageURL(oid graph.OID) string {
	return "/page/" + url.PathEscape(string(oid))
}

func (r *dynRenderer) RenderRef(oid graph.OID, anchorText string) (string, error) {
	u := PageURL(oid)
	if r.s.PageURLFunc != nil {
		if ref, ok := r.s.Ev.RefFor(oid); ok {
			u = r.s.PageURLFunc(ref, oid)
		}
	}
	return fmt.Sprintf(`<a href="%s">%s</a>`, u, html.EscapeString(anchorText)), nil
}

// maxEmbedDepth caps non-cyclic embed nesting; cycles themselves are cut
// exactly where they close, by the render-stack check.
const maxEmbedDepth = 32

func (r *dynRenderer) RenderEmbed(oid graph.OID) (string, error) {
	if ref, ok := r.s.Ev.RefFor(oid); ok {
		// A true embed cycle — the page is already on the render stack —
		// degrades to a reference at the exact point the cycle closes.
		for _, on := range r.stack {
			if on == oid {
				return r.RenderRef(oid, string(oid))
			}
		}
		if len(r.stack) > maxEmbedDepth {
			return r.RenderRef(oid, string(oid))
		}
		pd, err := r.s.Ev.pageIn(r.ctx, r.st, ref, false)
		if err != nil {
			return "", err
		}
		r.stack = append(r.stack, oid)
		defer func() { r.stack = r.stack[:len(r.stack)-1] }()
		if t := r.s.selectTemplate(ref.Fn); t != nil {
			return template.Render(t, pd.OID, dynSite{r: r}, r)
		}
		return r.defaultRender(pd)
	}
	// A data-graph object: render its attributes inline.
	var b strings.Builder
	for _, e := range r.st.src.Out(oid) {
		fmt.Fprintf(&b, "%s: %s ", html.EscapeString(e.Label), html.EscapeString(e.To.Text()))
	}
	return b.String(), nil
}

func (r *dynRenderer) RenderFile(v graph.Value, embed bool) (string, error) {
	esc := html.EscapeString(v.Str())
	if v.FileType() == graph.FileImage {
		return fmt.Sprintf(`<img src="%s">`, esc), nil
	}
	return fmt.Sprintf(`<a href="%s">%s</a>`, esc, esc), nil
}

// defaultRender lists the page's edges when no template is selected.
func (r *dynRenderer) defaultRender(pd *PageData) (string, error) {
	var b strings.Builder
	title := html.EscapeString(string(pd.OID))
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n<h1>%s</h1>\n<dl>\n", title, title)
	for _, e := range pd.Out {
		var cell string
		if e.To.IsNode() {
			if _, ok := r.s.Ev.RefFor(e.To.OID()); ok {
				ref, _ := r.RenderRef(e.To.OID(), string(e.To.OID()))
				cell = ref
			} else {
				cell = html.EscapeString(string(e.To.OID()))
			}
		} else {
			cell = html.EscapeString(e.To.Text())
		}
		fmt.Fprintf(&b, "<dt>%s</dt><dd>%s</dd>\n", html.EscapeString(e.Label), cell)
	}
	b.WriteString("</dl>\n</body></html>\n")
	return b.String(), nil
}
