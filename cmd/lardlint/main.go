// Command lardlint is the project's static-analysis suite: six
// analyzers that machine-check the dispatcher's concurrency contract
// (lockheld), the done-func slot accounting (donecall), the
// virtual-clock discipline (wallclock), the relay-path error
// classification (relayclass), the paired acquire/release obligations
// on pooled readers, pooled transports, and dialed conns (poolpair),
// and the zero-allocation guarantee on //lard:noalloc hot paths
// (noalloc).
//
// Usage (what CI and `make lint` run):
//
//	lardlint [-json] ./...
//
// loads the matched packages of the enclosing module (dependencies come
// from compiler export data, so nothing is re-type-checked; test files
// are not loaded), runs all six analyzers, prints diagnostics as
// file:line:col: [analyzer] message — or, with -json, as a JSON array
// of {file,line,col,analyzer,message} objects on stdout — and exits
// with:
//
//	0  no findings
//	1  operational error (load, type-check, or analyzer failure)
//	3  findings reported
//
// Suppress a deliberate exception on (or one line above) the flagged
// line with:
//
//	//lard:allow <analyzer>[,<analyzer>] — reason
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lard/internal/analysis"
	"lard/internal/analysis/donecall"
	"lard/internal/analysis/lockheld"
	"lard/internal/analysis/noalloc"
	"lard/internal/analysis/poolpair"
	"lard/internal/analysis/relayclass"
	"lard/internal/analysis/wallclock"
)

// analyzers is the suite.
var analyzers = []*analysis.Analyzer{
	lockheld.Analyzer,
	donecall.Analyzer,
	wallclock.Analyzer,
	relayclass.Analyzer,
	poolpair.Analyzer,
	noalloc.Analyzer,
}

func main() {
	args := os.Args[1:]

	jsonOut := false
	if len(args) > 0 && args[0] == "-json" {
		jsonOut = true
		args = args[1:]
	}

	os.Exit(run(args, jsonOut, os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire shape for one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run loads and checks the packages matching the patterns (default
// ./...) in the current directory's module.
func run(patterns []string, jsonOut bool, stdout, stderr io.Writer) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "lardlint: %v\n", err)
		return 1
	}
	found := 0
	all := []jsonDiagnostic{}
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "lardlint: %s: %v\n", pkg.PkgPath, err)
			return 1
		}
		for _, d := range diags {
			found++
			if jsonOut {
				all = append(all, jsonDiagnostic{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
			} else {
				fmt.Fprintf(stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
			}
		}
	}
	if jsonOut {
		// Always emit the array — [] on a clean run — so consumers can
		// parse unconditionally.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(stderr, "lardlint: %v\n", err)
			return 1
		}
	}
	if found > 0 {
		return 3
	}
	return 0
}
