package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtures is the analyzers' own fixture tree: harness carries eight
// detfree findings plus one suppressed, errtyped eight errtyped
// findings, free none.
const fixtures = "../../internal/analysis/testdata/src"

var plainLine = regexp.MustCompile(`^.+\.go:\d+:\d+: .+ \[([a-z]+)\]$`)

// lint runs the command in-process and returns its exit status and the
// non-empty lines of stdout.
func lint(t *testing.T, dir string, args ...string) (exit int, lines []string, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	exit = run(dir, args, &out, &errb)
	for _, l := range strings.Split(out.String(), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return exit, lines, errb.String()
}

func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		exit    int
	}{
		{"free", 0},
		{"errtyped", 1},
		{"nosuchpkg", 2},
		{"nosuchdir/...", 2},
	} {
		exit, lines, stderr := lint(t, fixtures, tc.pattern)
		if exit != tc.exit {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.pattern, exit, tc.exit, stderr)
		}
		if (tc.exit == 1) != (len(lines) > 0) {
			t.Errorf("%s: exit %d with %d findings printed", tc.pattern, tc.exit, len(lines))
		}
		if (tc.exit == 2) != (stderr != "") {
			t.Errorf("%s: exit %d with stderr %q", tc.pattern, tc.exit, stderr)
		}
		for _, l := range lines {
			if m := plainLine.FindStringSubmatch(l); m == nil || m[1] != "errtyped" {
				t.Errorf("%s: line %q is not file:line:col: message [errtyped]", tc.pattern, l)
			}
		}
	}
	if exit, _, stderr := lint(t, fixtures, "-nosuchflag", "free"); exit != 2 || stderr == "" {
		t.Errorf("unknown flag: exit %d, stderr %q; want 2 and a usage message", exit, stderr)
	}
}

func TestJSONListsSuppressedFindings(t *testing.T) {
	_, plain, _ := lint(t, fixtures, "harness")
	exit, lines, _ := lint(t, fixtures, "-json", "harness")
	if exit != 1 {
		t.Errorf("exit %d, want 1: harness has unsuppressed findings", exit)
	}
	var suppressed, open int
	for _, l := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatalf("line %q is not one JSON object: %v", l, err)
		}
		if f.Analyzer != "detfree" || f.Message == "" || !strings.Contains(f.Pos, "a.go:") {
			t.Errorf("incomplete finding %+v", f)
		}
		if f.Suppressed {
			suppressed++
		} else {
			open++
		}
	}
	if suppressed != 1 || open != len(plain) || open == 0 {
		t.Errorf("-json gave %d open + %d suppressed findings; plain mode printed %d and the fixture suppresses 1",
			open, suppressed, len(plain))
	}
}

// TestAnalyzerSet pins the suite: four analyzers, each kept under the
// rule of DESIGN.md §13.1. poollife was dropped under it, so its flag
// is a usage error like any unknown one.
func TestAnalyzerSet(t *testing.T) {
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, " "), "policypure detfree errtyped goroleak"; got != want {
		t.Errorf("analyzers are %q, want %q", got, want)
	}
	if exit, _, stderr := lint(t, fixtures, "-poollife", "free"); exit != 2 || !strings.Contains(stderr, "-poollife") {
		t.Errorf("-poollife: exit %d, stderr %q; want 2 and a usage message naming the flag", exit, stderr)
	}
}

func TestAnalyzerSelection(t *testing.T) {
	for _, tc := range []struct {
		args []string
		exit int
	}{
		{[]string{"-detfree", "harness"}, 1},
		{[]string{"-detfree", "errtyped"}, 0}, // only detfree runs; the errtyped findings are not looked for
		{[]string{"-detfree=false", "harness"}, 0},
		{[]string{"-detfree=false", "errtyped"}, 1}, // the other three still run
		{[]string{"-detfree", "-errtyped", "errtyped"}, 1},
	} {
		if exit, lines, stderr := lint(t, fixtures, tc.args...); exit != tc.exit {
			t.Errorf("%v: exit %d, want %d\n%s%s", tc.args, exit, tc.exit, strings.Join(lines, "\n"), stderr)
		}
	}
}

// TestIgnoreDirective checks both halves of the suppression rule on a
// throwaway boundary package: a directive with a reason hides the
// finding from plain output and from the exit status (but not from
// -json), and a directive without a reason hides nothing.
func TestIgnoreDirective(t *testing.T) {
	write := func(directive string) string {
		dir := t.TempDir()
		src := "package harness\n\nimport \"time\"\n\nfunc now() time.Time {\n\t" +
			directive + "\n\treturn time.Now()\n}\n"
		if err := os.MkdirAll(filepath.Join(dir, "harness"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "harness", "a.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	reasoned := write("//lint:ignore detfree the caller injects a fake clock")
	if exit, lines, _ := lint(t, reasoned, "harness"); exit != 0 || len(lines) != 0 {
		t.Errorf("reasoned directive: exit %d, output %q; want a clean run", exit, lines)
	}
	exit, lines, _ := lint(t, reasoned, "-json", "harness")
	if exit != 0 || len(lines) != 1 || !strings.Contains(lines[0], `"suppressed":true`) {
		t.Errorf("reasoned directive, -json: exit %d, output %q; want exit 0 and the one suppressed finding", exit, lines)
	}

	bare := write("//lint:ignore detfree")
	if exit, lines, _ := lint(t, bare, "harness"); exit != 1 || len(lines) != 1 {
		t.Errorf("directive with no reason: exit %d, output %q; want the finding reported", exit, lines)
	}
}
