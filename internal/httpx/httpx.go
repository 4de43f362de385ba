// Package httpx is the serving tier's one HTTP front door: the
// middleware every public handler runs behind (panic recovery, load
// shedding, request deadlines, request metrics), weak ETag matching for
// conditional GETs, Retry-After formatting, and the sanitizing mapper
// from a failed request's error to its response.
//
// The page edge (fleet.Edge) and the query API (queryapi.Service) both
// compose their handlers from these pieces. Refusals are written by a
// caller-supplied function, so each surface keeps its own body format —
// text for pages, typed JSON envelopes for queries — while the policy
// behind them exists once.
package httpx

import (
	"context"
	"errors"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"strudel/internal/obs"
)

// Middleware wraps a handler with one concern.
type Middleware func(http.Handler) http.Handler

// Chain wraps h in mw, outermost first: Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// Logf receives server-side detail that must never reach a client.
type Logf func(format string, args ...any)

// Refusal writes the response for a request the chain turns away: a
// shed request or a recovered panic.
type Refusal func(w http.ResponseWriter, r *http.Request)

// Recover catches a panic in the wrapped handler, logs the value and
// stack through logf, and answers with refuse. If the handler had
// already written, the refusal is a late no-op write; the connection is
// torn down regardless.
func Recover(logf Logf, refuse Refusal) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if p := recover(); p != nil {
					logf("panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
					refuse(w, r)
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Shed admits at most n concurrent requests and answers the rest with
// refuse at once, instead of queueing them without bound. n <= 0
// admits everything.
func Shed(n int, refuse Refusal) Middleware {
	if n <= 0 {
		return identity
	}
	sem := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				refuse(w, r)
			}
		})
	}
}

// Deadline bounds each request's context by d; evaluation observes it
// at operator boundaries. d <= 0 sets no deadline.
func Deadline(d time.Duration) Middleware {
	if d <= 0 {
		return identity
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// Metrics counts requests into requests and, when nanos is non-nil,
// records each request's latency there. A nil requests counter makes it
// the identity.
func Metrics(requests *obs.Counter, nanos *obs.Histogram) Middleware {
	if requests == nil {
		return identity
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Inc()
			if nanos == nil {
				next.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			defer func() { nanos.Observe(int64(time.Since(start))) }()
			next.ServeHTTP(w, r)
		})
	}
}

func identity(next http.Handler) http.Handler { return next }

// ETagMatch reports whether an If-None-Match header matches etag: "*",
// or a comma-separated list of entity tags compared weakly (RFC 9110
// §13.1.2), so a W/ prefix on either side is ignored.
func ETagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == etag {
			return true
		}
	}
	return false
}

// RetryAfter converts a recovery hint to the delay-seconds of a
// Retry-After header: whole seconds, rounded up, at least 1 (clients
// treat 0 as "retry immediately", which defeats the point of the hint).
func RetryAfter(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Fail answers a request whose work failed with err, and reports the
// status it wrote. A deadline is 504. A client cancellation writes
// nothing and reports 0: nobody is listening. Anything else is a
// generic 500. The error itself goes to logf only, because error
// strings can embed data values, file paths and other internals.
func Fail(w http.ResponseWriter, r *http.Request, err error, logf Logf) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		logf("%s: request deadline exceeded: %v", r.URL.Path, err)
		http.Error(w, "request timed out", http.StatusGatewayTimeout)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		logf("%s: request cancelled by client: %v", r.URL.Path, err)
		return 0
	default:
		logf("%s: internal error: %v", r.URL.Path, err)
		http.Error(w, "internal server error", http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
}
