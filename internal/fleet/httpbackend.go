package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/htmlgen"
	"strudel/internal/httpx"
)

// This file is the over-the-wire shard transport: a replica can be
// exposed as its own HTTP server and the edge can fetch from replicas
// by URL instead of method call. The in-process path is the production
// default for a single binary; the HTTP path is what a multi-process
// deployment uses, and the differential oracle runs both to prove the
// network hop changes no byte. The HTTP path carries three extra
// end-to-end signals the in-process path gets for free:
//
//   - the request deadline propagates as a header, so a replica stops
//     rendering work whose requester has already given up;
//   - the body carries a content checksum, so a corrupted wire byte is
//     caught at the edge and failed over instead of served;
//   - a down replica's 503 carries a Retry-After hint that flows
//     through the cluster's shard-down error to the edge's response.

// genHeader carries the data generation a replica rendered against.
const genHeader = "X-Strudel-Generation"

// deadlineHeader carries the requester's remaining time budget in
// milliseconds, so the deadline survives the HTTP hop.
const deadlineHeader = "X-Strudel-Deadline-Ms"

// bodyHashHeader carries the rendered body's content hash for
// end-to-end integrity: the edge recomputes it over the received bytes
// and treats a mismatch as a replica failure.
const bodyHashHeader = "X-Strudel-Body-Hash"

// ReplicaServer exposes one replica as an HTTP shard server:
// GET /page/<key> renders the page and tags the response with the
// replica's data generation and body checksum. Errors map like the
// edge: dead replica 503 + Retry-After, deadline 504, other failures
// sanitized 500.
type ReplicaServer struct {
	Replica *Replica
	// RetryAfter is the recovery hint advertised on a down replica's
	// 503; 0 means 1s.
	RetryAfter time.Duration
}

// Handler returns the replica server's HTTP handler.
func (s *ReplicaServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/page/", func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.URL.Path, "/page/")
		key, err := url.PathUnescape(raw)
		if err != nil {
			http.Error(w, "bad page key", http.StatusBadRequest)
			return
		}
		ref, err := DecodeRef(key)
		if err != nil {
			http.Error(w, "bad page key", http.StatusBadRequest)
			return
		}
		ctx := r.Context()
		if ms, ok := parseDeadlineMs(r.Header.Get(deadlineHeader)); ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, ms)
			defer cancel()
		}
		body, gen, err := s.Replica.Render(ctx, ref)
		if err != nil {
			switch {
			case err == ErrReplicaDown:
				ra := s.RetryAfter
				if ra <= 0 {
					ra = time.Second
				}
				w.Header().Set("Retry-After", strconv.Itoa(httpx.RetryAfter(ra)))
				http.Error(w, "replica down", http.StatusServiceUnavailable)
			case ctx.Err() != nil:
				http.Error(w, "request timed out", http.StatusGatewayTimeout)
			default:
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set(genHeader, strconv.FormatInt(gen, 10))
		w.Header().Set(bodyHashHeader, htmlgen.PageHash(body))
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, body)
	})
	return mux
}

// ReplicaHandler exposes one replica as an HTTP shard server with
// default settings.
func ReplicaHandler(rep *Replica) http.Handler {
	return (&ReplicaServer{Replica: rep}).Handler()
}

// parseDeadlineMs parses the deadline header into a remaining budget.
func parseDeadlineMs(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// HTTPCluster is a Cluster whose shard fetches go over real HTTP to
// replica servers, through the same gray-failure policy as the
// in-process fleet: health-ordered routing, tail-latency hedging,
// per-replica circuit breakers, budget-bounded failover. Routing,
// generations, and entry points delegate to the underlying fleet (in a
// multi-process deployment those would come from configuration and a
// coordination channel; the tests' concern here is the data path).
type HTTPCluster struct {
	Fleet *Fleet
	// URLs[shard] lists the base URLs of that shard's replica servers.
	URLs   [][]string
	Client *http.Client

	gray *grayState
}

// httpAttemptTimeout bounds each outbound replica request (connect,
// response, and full body read) when the fleet's GrayConfig left
// AttemptTimeout unset. The in-process path can afford "parent deadline
// only"; over a network, an unbounded attempt means a stalled replica
// ties up the whole request until the edge deadline — exactly the gray
// failure this layer exists to route around.
const httpAttemptTimeout = 5 * time.Second

// NewHTTPCluster wraps a fleet with per-replica HTTP endpoints. The
// gray-failure config (and metrics sink) comes from the fleet's own
// Config; the cluster keeps its own health grid because replica
// identity differs (URLs, not in-process handles).
func NewHTTPCluster(f *Fleet, urls [][]string) *HTTPCluster {
	counts := make([]int, len(urls))
	for s, u := range urls {
		counts[s] = len(u)
	}
	gcfg := f.cfg.Gray
	if gcfg.AttemptTimeout <= 0 {
		gcfg.AttemptTimeout = httpAttemptTimeout
	}
	return &HTTPCluster{
		Fleet:  f,
		URLs:   urls,
		Client: &http.Client{Timeout: 30 * time.Second},
		gray:   newGrayState(gcfg, counts, f.cfg.Obs),
	}
}

func (c *HTTPCluster) Route(key string) int           { return c.Fleet.Route(key) }
func (c *HTTPCluster) Generation() int64              { return c.Fleet.Generation() }
func (c *HTTPCluster) GenTime(gen int64) time.Time    { return c.Fleet.GenTime(gen) }
func (c *HTTPCluster) LastSwap() time.Time            { return c.Fleet.LastSwap() }
func (c *HTTPCluster) EntryPoints() []dynamic.PageRef { return c.Fleet.EntryPoints() }
func (c *HTTPCluster) KnownFn(fn string) bool         { return c.Fleet.KnownFn(fn) }

// Health returns one replica endpoint's health account.
func (c *HTTPCluster) Health(shard, i int) *ReplicaHealth { return c.gray.Health(shard, i) }

// HealthSnapshot reports the cluster's health grid for /debug/vars.
func (c *HTTPCluster) HealthSnapshot() map[string]any { return c.gray.Snapshot() }

// StartHealthChecks begins active probing of every replica endpoint:
// each probe fetches the site's first entry point over HTTP. Probes
// stop when ctx is cancelled.
func (c *HTTPCluster) StartHealthChecks(ctx context.Context) {
	eps := c.Fleet.EntryPoints()
	if len(eps) == 0 {
		return
	}
	key := EncodeRef(eps[0])
	c.gray.startProbes(ctx, func(ctx context.Context, shard, idx int) error {
		_, _, err := c.fetchOne(ctx, c.URLs[shard][idx], key)
		return err
	})
}

// Fetch renders a page over HTTP on the owning shard through the
// gray-failure policy.
func (c *HTTPCluster) Fetch(ctx context.Context, shard int, key string, ref dynamic.PageRef) (string, int64, error) {
	if shard < 0 || shard >= len(c.URLs) {
		return "", 0, fmt.Errorf("fleet: no such shard %d", shard)
	}
	if m := c.Fleet.cfg.Obs; m != nil {
		m.ShardFetches.Inc()
	}
	return c.gray.fetch(ctx, shard, func(ctx context.Context, idx int) (string, int64, error) {
		return c.fetchOne(ctx, c.URLs[shard][idx], key)
	})
}

// fetchOne performs a single replica request. Transport failures,
// 503s, and checksum mismatches come back as *errUnavail (retryable on
// a sibling, possibly carrying the replica's Retry-After hint); any
// other non-200 is deterministic and surfaces as-is.
func (c *HTTPCluster) fetchOne(ctx context.Context, base, key string) (string, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/page/"+urlEscapeKey(key), nil)
	if err != nil {
		return "", 0, err
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := c.Client.Do(req)
	if err != nil {
		return "", 0, &errUnavail{cause: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		// Reset or stall mid-body: the request context (attempt
		// timeout) unblocks the read; either way the bytes are unusable.
		return "", 0, &errUnavail{cause: err}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if want := resp.Header.Get(bodyHashHeader); want != "" && htmlgen.PageHash(string(b)) != want {
			if m := c.Fleet.cfg.Obs; m != nil {
				m.ChecksumFailures.Inc()
			}
			return "", 0, &errUnavail{cause: fmt.Errorf("body checksum mismatch from %s", base)}
		}
		gen, _ := strconv.ParseInt(resp.Header.Get(genHeader), 10, 64)
		return string(b), gen, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "", 0, &errUnavail{
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			cause:      fmt.Errorf("replica %s: status 503", base),
		}
	default:
		return "", 0, fmt.Errorf("fleet: replica %s: status %d", base, resp.StatusCode)
	}
}

// parseRetryAfter parses a Retry-After header's delay-seconds form
// (the only form this tier emits); 0 when absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
