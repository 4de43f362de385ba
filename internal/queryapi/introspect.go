package queryapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"strudel/internal/httpx"
	"strudel/internal/repo"
	"strudel/internal/struql"
)

// The introspection surface: /schema/labels and /schema/collections
// answer "what can I query" from the source's own indexes,
// /schema/dataguide materializes the strong dataguide (every label path
// that exists in the reachable graph, to a bounded depth), and
// /query/explain surfaces the cost-based planner's EXPLAIN text.
// Everything routes through the fleet like queries do, is keyed to a
// generation, and is memoized per generation — introspection is read
// traffic too and earns the same ETag/304 treatment.

// LabelInfo is one row of /schema/labels: the edge count always, the
// distinct source/target counts when the backing source indexes its
// attribute extents (repo.Indexed does; a plain graph reports -1).
type LabelInfo struct {
	Label   string `json:"label"`
	Count   int    `json:"count"`
	Sources int    `json:"sources"`
	Targets int    `json:"targets"`
}

// introspect runs a closure through the backend with per-generation
// memoization and conditional-GET handling shared by every
// introspection endpoint.
func (s *Service) introspect(w http.ResponseWriter, r *http.Request, kind, memoKey string,
	fn func(src struql.Source) (any, error)) {

	if r.Method != http.MethodGet {
		s.Obs.BadRequests.Inc()
		writeError(w, &Error{Code: CodeBadRequest, status: http.StatusMethodNotAllowed,
			Message: "use GET"})
		return
	}
	s.Obs.SchemaRequests.Inc()
	gen := s.Backend.Generation()
	etag := fmt.Sprintf("\"sg%d-%s\"", gen, memoKey)
	if inm := r.Header.Get("If-None-Match"); inm != "" && httpx.ETagMatch(inm, etag) {
		s.Obs.NotModified.Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	key := fmt.Sprintf("g%d-%s", gen, memoKey)
	s.mu.Lock()
	payload, ok := s.memo[key]
	s.mu.Unlock()
	if !ok {
		var gotGen int64
		var err error
		payload, gotGen, err = s.Backend.EvalOn(r.Context(), "schema:"+kind,
			func(ctx context.Context, src struql.Source, g int64) (string, error) {
				body, err := fn(src)
				if err != nil {
					return "", err
				}
				out, err := json.Marshal(body)
				return string(out), err
			})
		if err != nil {
			e := classify(err)
			if e == nil {
				return
			}
			if e.Code == CodeUnavailable {
				s.Obs.Unavailable.Inc()
			}
			writeError(w, e)
			return
		}
		// The closure may have run on a newer generation than the one
		// sampled above (a swap raced); key the memo and validator by
		// what actually ran.
		if gotGen != gen {
			gen = gotGen
			etag = fmt.Sprintf("\"sg%d-%s\"", gen, memoKey)
			key = fmt.Sprintf("g%d-%s", gen, memoKey)
		}
		s.mu.Lock()
		if len(s.memo) > 64 {
			s.memo = map[string]string{}
		}
		s.memo[key] = payload
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	fmt.Fprintf(w, "{\"generation\":%d,%s}\n", gen, payload[1:len(payload)-1])
}

func (s *Service) handleLabels(w http.ResponseWriter, r *http.Request) {
	s.introspect(w, r, "labels", "labels", func(src struql.Source) (any, error) {
		ls, hasStats := src.(struql.LabelStatser)
		labels := src.Labels()
		infos := make([]LabelInfo, 0, len(labels))
		for _, l := range labels {
			info := LabelInfo{Label: l, Count: src.LabelCount(l), Sources: -1, Targets: -1}
			if hasStats {
				info.Count, info.Sources, info.Targets = ls.LabelStats(l)
			}
			infos = append(infos, info)
		}
		return map[string]any{"labels": infos}, nil
	})
}

func (s *Service) handleCollections(w http.ResponseWriter, r *http.Request) {
	type collInfo struct {
		Name string `json:"name"`
		Size int    `json:"size"`
	}
	s.introspect(w, r, "collections", "collections", func(src struql.Source) (any, error) {
		names := src.CollectionNames()
		infos := make([]collInfo, 0, len(names))
		for _, n := range names {
			infos = append(infos, collInfo{Name: n, Size: src.CollectionSize(n)})
		}
		return map[string]any{"collections": infos}, nil
	})
}

func (s *Service) handleDataguide(w http.ResponseWriter, r *http.Request) {
	depth := 4
	if d := r.URL.Query().Get("depth"); d != "" {
		n, err := strconv.Atoi(d)
		if err != nil || n < 1 || n > 8 {
			s.Obs.BadRequests.Inc()
			writeError(w, &Error{Code: CodeBadRequest,
				Message: "depth must be an integer in [1, 8]"})
			return
		}
		depth = n
	}
	memoKey := fmt.Sprintf("dataguide-d%d", depth)
	s.introspect(w, r, "dataguide", memoKey, func(src struql.Source) (any, error) {
		dg := repo.BuildDataGuide(src, nil)
		paths := dg.Paths(depth)
		if paths == nil {
			paths = []string{}
		}
		return map[string]any{"depth": depth, "size": dg.Size(), "paths": paths}, nil
	})
}

// handleExplain surfaces the planner: POST the same envelope as /query
// and get back the EXPLAIN rendering (condition order, access paths,
// estimated costs) for the generation-pinned statistics of a live
// replica. A bare where clause and a full StruQL query are both
// accepted — the former is wrapped in a synthetic one-block query.
func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, aerr := s.readRequest(r)
	if aerr != nil {
		s.Obs.BadRequests.Inc()
		writeError(w, aerr)
		return
	}
	q, qerr := struql.Parse(req.Query)
	if qerr != nil {
		conds, werr := struql.ParseWhere(req.Query)
		if werr != nil {
			s.Obs.ParseErrors.Inc()
			// The where-clause error wins: /query accepts only where
			// clauses, so it is the more actionable diagnosis.
			writeError(w, classify(werr))
			return
		}
		q = &struql.Query{Blocks: []*struql.Block{{Where: conds, Line: 1}}}
	}
	payload, gen, err := s.Backend.EvalOn(r.Context(), fmt.Sprintf("query:%016x", queryHash(req.Query, nil)),
		func(ctx context.Context, src struql.Source, g int64) (string, error) {
			return struql.Explain(q, src, nil)
		})
	if err != nil {
		e := classify(err)
		if e == nil {
			return
		}
		if e.Code == CodeUnavailable {
			s.Obs.Unavailable.Inc()
		}
		writeError(w, e)
		return
	}
	s.Obs.Explains.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"generation": gen, "explain": payload})
}
