package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const testDDL = `
collection Pubs;
node p1 in Pubs { title "Strudel"; }
node p2 in Pubs { title "Boat"; }
`

const testQuery = `
create Root()
link Root() -> "title" -> "Library"
where Pubs(x)
create Page(x)
link Root() -> "pub" -> Page(x)
{ where x -> "title" -> tt link Page(x) -> "title" -> tt }
`

func TestBuildServerAndServe(t *testing.T) {
	dir := t.TempDir()
	ddl := write(t, dir, "d.ddl", testDDL)
	query := write(t, dir, "q.struql", testQuery)
	rootTmpl := write(t, dir, "Root.tmpl", `<h1><SFMT title></h1><SFMT pub UL TEXT=title>`)
	pageTmpl := write(t, dir, "Page.tmpl", `<b><SFMT title></b>`)

	cfg := config{dataFiles: []string{ddl}, templates: []string{"Root=" + rootTmpl, "Page=" + pageTmpl},
		queryFile: query, lookahead: true, queryAPI: true}
	fl, edge, rl, err := buildServer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rl == nil {
		t.Fatal("a server with data files should have a reloader")
	}
	hs := httptest.NewServer(frontDoor(cfg, fl, edge, nil))
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "<h1>Library</h1>") {
		t.Errorf("root body:\n%s", body)
	}
	if !strings.Contains(string(body), "Strudel") {
		t.Errorf("root should link pubs:\n%s", body)
	}

	// /healthz answers ok with reload counters.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Status != "ok" {
		t.Errorf("healthz status = %q", st.Status)
	}

	// The query API shares the front door and the fleet.
	resp, err = http.Post(hs.URL+"/query", "application/json", strings.NewReader(`{"query":"where Pubs(x)"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"total_rows":2`) {
		t.Errorf("/query = %d:\n%s", resp.StatusCode, body)
	}
}

func TestBuildServerHotReload(t *testing.T) {
	dir := t.TempDir()
	ddl := write(t, dir, "d.ddl", testDDL)
	query := write(t, dir, "q.struql", testQuery)
	cfg := config{dataFiles: []string{ddl}, queryFile: query}
	fl, edge, rl, err := buildServer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(frontDoor(cfg, fl, edge, nil))
	defer hs.Close()
	if body := get(t, hs.URL+"/"); !strings.Contains(body, "Library") {
		t.Fatalf("initial body:\n%s", body)
	}
	// Change the data file and force a poll: the new publication appears.
	write(t, dir, "d.ddl", testDDL+`
node p3 in Pubs { title "Reloaded"; }
`)
	rl.Tick(time.Now())
	found := false
	for i := 0; i < 50 && !found; i++ {
		found = strings.Contains(get(t, hs.URL+"/"), "Page(p3)")
		if !found {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !found {
		t.Error("reloaded publication not served")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBuildServerErrors(t *testing.T) {
	dir := t.TempDir()
	query := write(t, dir, "q.struql", `create Root()`)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"no query", func() error {
			_, _, _, err := buildServer(config{}, nil, nil)
			return err
		}},
		{"bad template spec", func() error {
			_, _, _, err := buildServer(config{templates: []string{"noequals"}, queryFile: query}, nil, nil)
			return err
		}},
		{"missing data file", func() error {
			_, _, _, err := buildServer(config{dataFiles: []string{"/nonexistent.ddl"}, queryFile: query}, nil, nil)
			return err
		}},
		{"no entry point", func() error {
			q2 := write(t, dir, "q2.struql", `where Pubs(x) create P(x)`)
			_, _, _, err := buildServer(config{queryFile: q2}, nil, nil)
			return err
		}},
	}
	for _, c := range cases {
		if c.fn() == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

func TestRunListenFailureExitCode(t *testing.T) {
	// Occupy a port, then ask run to bind it: exit code 2, not 1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := t.TempDir()
	cfg := config{
		dataFiles: []string{write(t, dir, "d.ddl", testDDL)},
		queryFile: write(t, dir, "q.struql", testQuery),
		addr:      ln.Addr().String(),
	}
	if code := run(cfg); code != exitListen {
		t.Errorf("exit code = %d, want %d", code, exitListen)
	}
}

func TestRunConfigErrorExitCode(t *testing.T) {
	if code := run(config{addr: "127.0.0.1:0"}); code != exitError {
		t.Errorf("exit code = %d, want %d", code, exitError)
	}
}

func TestRunGracefulShutdownOnSIGTERM(t *testing.T) {
	// Reserve a port for run to use.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	cfg := config{
		dataFiles:       []string{write(t, dir, "d.ddl", testDDL)},
		queryFile:       write(t, dir, "q.struql", testQuery),
		addr:            addr,
		requestTimeout:  5 * time.Second,
		maxInflight:     16,
		reloadInterval:  50 * time.Millisecond,
		shutdownTimeout: 5 * time.Second,
	}
	done := make(chan int, 1)
	go func() { done <- run(cfg) }()

	// Wait until it serves, then drain it with SIGTERM (caught by
	// signal.NotifyContext inside run; the test process survives).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != exitOK {
			t.Errorf("exit code = %d, want %d", code, exitOK)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("graceful shutdown never completed")
	}
}
