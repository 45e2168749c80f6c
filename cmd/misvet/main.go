// Command misvet runs the repository's determinism / CONGEST-contract
// analyzer suite (internal/lint) over the module and reports findings in
// go vet's clickable file:line:col format, prefixed with the analyzer
// name:
//
//	internal/mis/metivier/metivier.go:42:9: determinism: call of time.Now ...
//
// Usage:
//
//	misvet [flags] [package pattern ...]
//
// Patterns are module-relative import-path prefixes ("./...", the
// default, means the whole module; "./internal/congest/..." limits
// reporting to that subtree). The whole module is always loaded and
// type-checked — cross-package analyzers need it — patterns only filter
// which packages' findings are reported.
//
// Flags:
//
//	-json      emit findings as a JSON array instead of text
//	-only a,b  run only the named analyzers
//	-list      list the analyzers and exit
//	-C DIR     analyze the module in DIR (default ".")
//
// The summary line on stderr counts findings and advisory-suppressed
// findings and includes the suite's wall time, so analyzer cost
// regressions are visible in CI logs.
//
// Exit status: 0 when clean, 1 on any finding, 2 on usage or load errors.
//
// misvet is stdlib-only: it is a standalone checker rather than a
// `go vet -vettool` plugin (which would require golang.org/x/tools), but
// it is wired into `make ci` right beside go vet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as JSON")
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = fs.Bool("list", false, "list analyzers and exit")
		dir     = fs.String("C", ".", "module directory to analyze")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: misvet [flags] [package pattern ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Suite()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		var valid []string
		for _, a := range analyzers {
			byName[a.Name] = a
			valid = append(valid, a.Name)
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "misvet: unknown analyzer %q; valid analyzers: %s\n",
					name, strings.Join(valid, ", "))
				fs.Usage()
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	start := time.Now()
	module, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "misvet: %v\n", err)
		return 2
	}
	diags, suppressed := lint.Run(module, analyzers)
	elapsed := time.Since(start).Round(time.Millisecond)
	diags = filterPatterns(diags, fs.Args())

	if *jsonOut {
		out := diags
		if out == nil {
			out = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "misvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	fmt.Fprintf(stderr, "misvet: %d finding(s); %d advisory-suppressed (%d analyzers in %s)\n",
		len(diags), suppressed, len(analyzers), elapsed)
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// filterPatterns keeps findings whose package matches one of the
// go-style patterns ("./...", "./internal/congest", "./internal/mis/...").
// No patterns, or any "./..." pattern, keeps everything.
func filterPatterns(diags []lint.Diagnostic, patterns []string) []lint.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	var prefixes []string
	for _, p := range patterns {
		p = strings.TrimSuffix(p, "/") // "./pkg/" must match like "./pkg"
		p = strings.TrimPrefix(strings.TrimSuffix(p, "/..."), "./")
		if p == "" || p == "." {
			return diags
		}
		prefixes = append(prefixes, p)
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		for _, p := range prefixes {
			if d.File == p || strings.HasPrefix(d.File, p+"/") {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
