package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunTellsTheClickTimeStory runs the example end to end and checks
// the story it prints: the front page is served, re-browsing is served
// from the edge cache without computing a page, and the data change
// drops cached pages.
func TestRunTellsTheClickTimeStory(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "front page starts: <h1>The News</h1>") {
		t.Errorf("front page not served:\n%s", text)
	}
	rebrowse := regexp.MustCompile(`after re-browsing: \+(\d+) pages computed, \+(\d+) edge cache hits`).FindStringSubmatch(text)
	if rebrowse == nil {
		t.Fatalf("no re-browse line:\n%s", text)
	}
	if rebrowse[1] != "0" || rebrowse[2] != "2" {
		t.Errorf("re-browse computed %s pages with %s edge cache hits, want 0 and 2", rebrowse[1], rebrowse[2])
	}
	change := regexp.MustCompile(`dropped (\d+) cached pages and kept (\d+)`).FindStringSubmatch(text)
	if change == nil {
		t.Fatalf("no data-change line:\n%s", text)
	}
	if dropped, _ := strconv.Atoi(change[1]); dropped == 0 {
		t.Errorf("the data change dropped no cached pages:\n%s", text)
	}
}
