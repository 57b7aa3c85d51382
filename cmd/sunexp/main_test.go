package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from this run")

// experimentsPath is the committed rendering of every figure.
var experimentsPath = filepath.Join("..", "..", "EXPERIMENTS.md")

// timingLine matches the "[figX regenerated in …]" line that closes each
// figure, the only part of a run that varies from run to run.
var timingLine = regexp.MustCompile(`(?m)^\[\w+ regenerated in .*\]\n`)

// experimentsDoc renders a full sunexp run as EXPERIMENTS.md: every
// figure in run order, without its timing line, under a short header.
func experimentsDoc(out string) string {
	var figs []string
	for _, fig := range timingLine.Split(out, -1) {
		if fig = strings.Trim(fig, "\n"); fig != "" {
			figs = append(figs, fig)
		}
	}
	return "# EXPERIMENTS\n\n" +
		"The paper's figures as `go run ./cmd/sunexp` regenerates them, without its\n" +
		"`[figX regenerated in …]` timing lines. `TestExperimentsGolden` in\n" +
		"`cmd/sunexp` compares this file byte for byte at `-j 1` and `-j 2`;\n" +
		"`go test ./cmd/sunexp -run TestExperimentsGolden -update` rewrites it.\n\n" +
		"```text\n" + strings.Join(figs, "\n\n") + "\n```\n"
}

// lineDiff lists the lines where got departs from want, at most limit.
func lineDiff(want, got string, limit int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i, n := 0, 0; i < max(len(w), len(g)) && n < limit; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
			n++
		}
	}
	return sb.String()
}

// TestExperimentsGolden pins every figure byte for byte: a full run at
// parallelism 1 and 2 must reproduce EXPERIMENTS.md exactly. With
// -update the first run rewrites the file and the second still checks it.
func TestExperimentsGolden(t *testing.T) {
	for _, j := range []string{"1", "2"} {
		var sb strings.Builder
		if err := run([]string{"-j", j}, &sb); err != nil {
			t.Fatal(err)
		}
		got := experimentsDoc(sb.String())
		if *update && j == "1" {
			if err := os.WriteFile(experimentsPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(experimentsPath)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("-j %s: figures differ from EXPERIMENTS.md (name each moved row in the change log, then rerun with -update):\n%s",
				j, lineDiff(string(want), got, 40))
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "fig3d"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig 3(d)") || !strings.Contains(out, "torus/mesh") {
		t.Errorf("fig3d output wrong:\n%s", out)
	}
	if !strings.Contains(out, "regenerated in") {
		t.Error("timing line missing")
	}
}

func TestRunFig8bWithCustomRates(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "fig8b", "-rates", "0.1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.10") {
		t.Errorf("custom rate not used:\n%s", sb.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "fig99"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-rates", "xx"}, &sb); err == nil {
		t.Error("bad rates accepted")
	}
	if err := run([]string{"-j", "-1", "-exp", "fig3d"}, &sb); err == nil {
		t.Error("negative -j accepted")
	}
}
