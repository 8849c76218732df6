// Command treeschedlint is the repo's contract checker: it bundles the
// analyzers of internal/analysis (policypure, detfree, errtyped,
// goroleak), loads the named packages from source — no build step, no
// export data — and runs every selected analyzer over each:
//
//	go run ./cmd/treeschedlint ./...
//	go run ./cmd/treeschedlint -detfree ./internal/trace
//	go run ./cmd/treeschedlint -goroleak=false -json ./...
//
// With no pattern it checks ./... below the working directory, nested
// modules (bench/) included. Flags come before patterns. Naming
// analyzers (-detfree) runs only those; switching some off
// (-goroleak=false) runs the rest. Diagnostics are printed as
// file:line:col: message [analyzer], and the exit status is 1 iff
// diagnostics were reported, 2 if a package could not be loaded. -json
// instead emits one JSON object per finding (analyzer, pos, message,
// suppressed) on stdout — suppressed findings included, for
// auditability — with exit status keyed to unsuppressed findings only.
// A finding that is a proven false positive can be suppressed at the
// site with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it (see DESIGN.md §11).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detfree"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/errtyped"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/load"
	"repro/internal/analysis/policypure"
)

const progname = "treeschedlint"

var analyzers = []*analysis.Analyzer{
	policypure.Analyzer,
	detfree.Analyzer,
	errtyped.Analyzer,
	goroleak.Analyzer,
}

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json output shape: one object per finding, one
// finding per line (JSON Lines), suppressed findings included.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// run checks the packages args name, resolved against dir, and
// returns the process exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonMode := fs.Bool("json", false, "emit one JSON object per finding, suppressed ones included")
	want := map[string]*bool{}
	for _, a := range analyzers {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		want[a.Name] = fs.Bool(a.Name, false, summary)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := load.New(dir)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 2
	}
	session := driver.New(loader, selectAnalyzers(fs, want))
	enc := json.NewEncoder(stdout)
	exit := 0
	for _, path := range paths {
		findings, err := session.Run(path)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", progname, err)
			exit = 2
			continue
		}
		for _, f := range findings {
			pos := loader.Fset().Position(f.Diag.Pos).String()
			if *jsonMode {
				enc.Encode(jsonFinding{
					Analyzer:   f.Analyzer,
					Pos:        pos,
					Message:    f.Diag.Message,
					Suppressed: f.Diag.Suppressed,
				})
			} else if !f.Diag.Suppressed {
				fmt.Fprintf(stdout, "%s: %s [%s]\n", pos, f.Diag.Message, f.Analyzer)
			}
			if !f.Diag.Suppressed && exit == 0 {
				exit = 1
			}
		}
	}
	return exit
}

// selectAnalyzers applies the -<analyzer>[=false] flags the command
// line set: if any analyzer was switched on, only those run;
// otherwise all run minus the ones switched off.
func selectAnalyzers(fs *flag.FlagSet, want map[string]*bool) []*analysis.Analyzer {
	explicit := map[string]bool{} // value of each analyzer flag the command line set
	anyOn := false
	fs.Visit(func(f *flag.Flag) {
		if v, ok := want[f.Name]; ok {
			explicit[f.Name] = *v
			anyOn = anyOn || *v
		}
	})
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if on, ok := explicit[a.Name]; on || !ok && !anyOn {
			out = append(out, a)
		}
	}
	return out
}
