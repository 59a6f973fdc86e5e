package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/bwtree"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/shard"
	"repro/internal/wal"
)

// docFiles are the documents that tell a reader how to run bwbench and
// which options to set.
// CHANGES.md and ROADMAP.md are history and may name what is gone;
// benchmark/ documents its own module.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"PAPER.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

// bwbenchCall matches a bwbench invocation — `bwbench`, `./cmd/bwbench`
// or `go run ./cmd/bwbench` — then its numeric flags, and captures the
// experiment names that follow on the same line.
var bwbenchCall = regexp.MustCompile("(?:^|[\\s`(]|\\./cmd/)bwbench(?:[ \\t]+-\\w+(?:[ =][\\d_]+)?)*((?:[ \\t]+[a-z][a-z0-9-]*)+)")

// forEachDocLine runs visit, in one subtest per document, on every line
// of the documents, numbered from 1.
func forEachDocLine(t *testing.T, visit func(t *testing.T, doc string, n int, line string)) {
	for _, doc := range docFiles {
		t.Run(doc, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", doc))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				visit(t, doc, i+1, line)
			}
		})
	}
}

// TestDocsNameLiveExperiments fails when a document runs a bwbench
// experiment that no longer exists or points at a deleted bench/BENCH*
// baseline.
func TestDocsNameLiveExperiments(t *testing.T) {
	known := map[string]bool{"list": true, "all": true}
	for _, e := range harness.Experiments() {
		known[e.Name] = true
	}
	calls := 0
	forEachDocLine(t, func(t *testing.T, doc string, n int, line string) {
		if strings.Contains(line, "bench/BENCH") {
			t.Errorf("%s:%d: points at a deleted bench/BENCH* baseline: %s", doc, n, line)
		}
		for _, m := range bwbenchCall.FindAllStringSubmatch(line, -1) {
			calls++
			for _, exp := range strings.Fields(m[1]) {
				if !known[exp] {
					t.Errorf("%s:%d: bwbench has no experiment %q: %s", doc, n, exp, line)
				}
			}
		}
	})
	if calls == 0 {
		t.Fatal("found no bwbench invocation in the documents; the pattern is broken")
	}
}

// optionRef matches a back-quoted `Options.X` and captures X.
var optionRef = regexp.MustCompile("`Options\\.(\\w+)")

// TestDocsNameLiveOptions fails when a document names an `Options.X`
// that is a field of none of the option structs a reader can set.
func TestDocsNameLiveOptions(t *testing.T) {
	fields := map[string]bool{}
	for _, v := range []any{core.Options{}, shard.Options{}, bwtree.DurableOptions{}, wal.Options{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			fields[typ.Field(i).Name] = true
		}
	}
	refs := 0
	forEachDocLine(t, func(t *testing.T, doc string, n int, line string) {
		for _, m := range optionRef.FindAllStringSubmatch(line, -1) {
			refs++
			if !fields[m[1]] {
				t.Errorf("%s:%d: no option struct has a field %q: %s", doc, n, m[1], line)
			}
		}
	})
	if refs == 0 {
		t.Fatal("found no `Options.X` in the documents; the pattern is broken")
	}
}

// commandRef matches a cmd/<name> path and captures name.
var commandRef = regexp.MustCompile(`cmd/([a-z][a-z0-9-]*)`)

// TestDocsNameLiveCommands fails when a document names a cmd/<name>
// directory that does not exist, so a recipe left pointing at a deleted
// command goes red.
func TestDocsNameLiveCommands(t *testing.T) {
	refs := 0
	forEachDocLine(t, func(t *testing.T, doc string, n int, line string) {
		for _, m := range commandRef.FindAllStringSubmatch(line, -1) {
			refs++
			if _, err := os.Stat(filepath.Join("..", m[1])); err != nil {
				t.Errorf("%s:%d: names cmd/%s, which does not exist: %s", doc, n, m[1], line)
			}
		}
	})
	if refs == 0 {
		t.Fatal("found no cmd/<name> in the documents; the pattern is broken")
	}
}
