package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"simtmp/internal/bench"
)

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range []string{"Nekbone", "LULESH", "PARTISN"} {
		if !strings.Contains(out, app) {
			t.Errorf("Table I output missing %s", app)
		}
	}
}

func TestRunDumpAndAnalyzeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lulesh.trace")
	var buf bytes.Buffer
	if err := run([]string{"-dump", path, "-app", "LULESH", "-ranks", "27"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote LULESH trace (27 ranks") {
		t.Errorf("dump output = %q", buf.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-analyze", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "app LULESH: 27 ranks") {
		t.Errorf("analyze output = %q", out)
	}
	if !strings.Contains(out, "eager fraction") {
		t.Error("analyze output missing protocol mix")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Error("no-op invocation succeeded")
	}
	if err := run([]string{"-dump", "/tmp/x", "-app", "NotAnApp"}, &buf); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-analyze", "/nonexistent/file"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
}

// TestAnalysesHaveVerdicts holds every analysis to a claim:
// EXPERIMENTS.md's section-verdict table must carry exactly one row per
// tracestat section flag, and no row for a flag that no longer exists.
func TestAnalysesHaveVerdicts(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows, flags []string
	for _, m := range regexp.MustCompile("(?m)^\\| `tracestat -([a-z0-9]+)` \\|").FindAllSubmatch(doc, -1) {
		rows = append(rows, string(m[1]))
	}
	for _, s := range bench.Sections() {
		if s.Command == "tracestat" {
			flags = append(flags, s.Name)
		}
	}
	slices.Sort(rows)
	slices.Sort(flags)
	if len(flags) == 0 || !slices.Equal(rows, flags) {
		t.Errorf("EXPERIMENTS.md verdict rows %v, want one per analysis flag %v", rows, flags)
	}
}
