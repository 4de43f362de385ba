package httpx

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strudel/internal/obs"
)

// record logs into a slice, for asserting what reached the server log.
type record struct{ lines []string }

func (r *record) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *record) String() string { return strings.Join(r.lines, "\n") }

func serve(h http.Handler) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/p", nil))
	return w
}

func TestChainOrderOutermostFirst(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { order = append(order, "h") }),
		tag("a"), tag("b"))
	serve(h)
	if got := strings.Join(order, ","); got != "a,b,h" {
		t.Fatalf("order = %s, want a,b,h", got)
	}
}

func TestRecoverLogsAndRefuses(t *testing.T) {
	var log record
	refused := 0
	h := Recover(log.logf, func(w http.ResponseWriter, r *http.Request) {
		refused++
		http.Error(w, "internal server error", http.StatusInternalServerError)
	})(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("secret internal detail") }))
	w := serve(h)
	if w.Code != http.StatusInternalServerError || strings.Contains(w.Body.String(), "secret") {
		t.Fatalf("recovered panic answered %d %q, want a sanitized 500", w.Code, w.Body.String())
	}
	if refused != 1 {
		t.Fatalf("refusal written %d times, want 1", refused)
	}
	if s := log.String(); !strings.Contains(s, "secret internal detail") || !strings.Contains(s, "goroutine") {
		t.Fatalf("log lacks the panic value and stack:\n%s", s)
	}
}

func TestShedRefusesPastLimit(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	shed := 0
	h := Shed(1, func(w http.ResponseWriter, r *http.Request) {
		shed++
		w.WriteHeader(http.StatusServiceUnavailable)
	})(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/block" {
			close(entered)
			<-release
		}
	}))
	done := make(chan int)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/block", nil))
		done <- w.Code
	}()
	<-entered
	if code := serve(h).Code; code != http.StatusServiceUnavailable || shed != 1 {
		t.Fatalf("second request = %d after %d refusals, want 503 after 1", code, shed)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("admitted request = %d", code)
	}
	// The slot is free again.
	if code := serve(h).Code; code != http.StatusOK || shed != 1 {
		t.Fatalf("request after release = %d after %d refusals, want 200 after 1", code, shed)
	}

	// n <= 0 admits everything.
	if got := Shed(0, nil)(http.NotFoundHandler()); serve(got).Code != http.StatusNotFound {
		t.Fatal("Shed(0) is not the identity")
	}
}

func TestDeadlineBoundsContext(t *testing.T) {
	var deadline time.Time
	var ok bool
	h := Deadline(time.Minute)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline, ok = r.Context().Deadline()
	}))
	serve(h)
	if !ok || time.Until(deadline) > time.Minute {
		t.Fatalf("deadline = %v (set %v), want within a minute", deadline, ok)
	}
	h = Deadline(0)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, ok = r.Context().Deadline()
	}))
	serve(h)
	if ok {
		t.Fatal("Deadline(0) set a deadline")
	}
}

func TestMetricsCountsAndTimes(t *testing.T) {
	var reqs obs.Counter
	var nanos obs.Histogram
	h := Metrics(&reqs, &nanos)(http.NotFoundHandler())
	serve(h)
	serve(h)
	if reqs.Load() != 2 || nanos.Count() != 2 {
		t.Fatalf("requests = %d, latencies = %d, want 2 and 2", reqs.Load(), nanos.Count())
	}
	serve(Metrics(&reqs, nil)(http.NotFoundHandler()))
	if reqs.Load() != 3 || nanos.Count() != 2 {
		t.Fatalf("count-only metrics: requests = %d, latencies = %d, want 3 and 2", reqs.Load(), nanos.Count())
	}
}

func TestETagMatchIsWeak(t *testing.T) {
	const tag = `"g1-abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{tag, true},
		{"W/" + tag, true},
		{`"other", ` + tag, true},
		{`"other" , W/` + tag + `, "more"`, true},
		{"*", true},
		{" * ", true},
		{`"other"`, false},
		{`"g1-abcd"`, false},
		{`g1-abc`, false},
	}
	for _, c := range cases {
		if got := ETagMatch(c.header, tag); got != c.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", c.header, tag, got, c.want)
		}
	}
	if !ETagMatch(tag, "W/"+tag) {
		t.Error("a weak stored tag must match its strong spelling")
	}
}

func TestRetryAfterRoundsUpToWholeSeconds(t *testing.T) {
	cases := map[time.Duration]int{
		0:                       1,
		-time.Second:            1,
		time.Millisecond:        1,
		time.Second:             1,
		1500 * time.Millisecond: 2,
		7 * time.Second:         7,
	}
	for d, want := range cases {
		if got := RetryAfter(d); got != want {
			t.Errorf("RetryAfter(%v) = %d, want %d", d, got, want)
		}
	}
}

func TestFailSanitizesErrors(t *testing.T) {
	var log record
	fail := func(err error) (*httptest.ResponseRecorder, int) {
		w := httptest.NewRecorder()
		status := Fail(w, httptest.NewRequest("GET", "/page/x", nil), err, log.logf)
		return w, status
	}

	if w, status := fail(fmt.Errorf("page: %w", context.DeadlineExceeded)); w.Code != http.StatusGatewayTimeout || status != w.Code {
		t.Errorf("deadline: wrote %d, reported %d", w.Code, status)
	}
	// A client disconnect gets no response body: nobody is listening.
	if w, status := fail(fmt.Errorf("page: %w", context.Canceled)); w.Body.Len() != 0 || status != 0 {
		t.Errorf("cancel: wrote %q, reported %d", w.Body.String(), status)
	}
	// Internal errors are logged in full; the client sees a generic 500.
	w, status := fail(errors.New("confidential: /etc/site/pubs.ddl:17"))
	if w.Code != http.StatusInternalServerError || status != w.Code {
		t.Errorf("internal: wrote %d, reported %d", w.Code, status)
	}
	if got := w.Body.String(); strings.Contains(got, "confidential") || !strings.Contains(got, "internal server error") {
		t.Errorf("internal: body = %q", got)
	}
	if !strings.Contains(log.String(), "confidential: /etc/site/pubs.ddl:17") {
		t.Error("error detail missing from server-side log")
	}
}
