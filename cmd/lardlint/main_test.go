package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"lard/internal/analysis"
	"lard/internal/analysis/donecall"
	"lard/internal/analysis/flow"
	"lard/internal/analysis/poolpair"
	"lard/internal/analysis/relayclass"
)

func TestCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"lard/internal/quota"}, true, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on a clean package, want 0; stderr:\n%s", code, &stderr)
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("-json on a clean package printed %q, want []", got)
	}
}

// The donecall fixture is a package with known findings.
func TestFindings(t *testing.T) {
	const fixture = "../../internal/analysis/donecall/testdata/src/donefix"
	var stdout, stderr bytes.Buffer
	if code := run([]string{fixture}, true, &stdout, &stderr); code != 3 {
		t.Fatalf("exit %d on a package with findings, want 3; stderr:\n%s", code, &stderr)
	}
	// The wire shape is exactly these five keys.
	var got []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, &stdout)
	}
	if len(got) == 0 {
		t.Fatal("exit 3 with an empty findings array")
	}
	for _, d := range got {
		if len(d) != 5 {
			t.Fatalf("finding has keys other than file,line,col,analyzer,message: %v", d)
		}
		file, _ := d["file"].(string)
		line, _ := d["line"].(float64)
		col, _ := d["col"].(float64)
		msg, _ := d["message"].(string)
		if !strings.HasSuffix(file, "donefix.go") || line < 1 || col < 1 || d["analyzer"] != "donecall" || msg == "" {
			t.Fatalf("malformed finding: %v", d)
		}
	}

	// Without -json the same findings go to stderr, one per line.
	stdout.Reset()
	if code := run([]string{fixture}, false, &stdout, &stderr); code != 3 {
		t.Fatalf("exit %d without -json, want 3", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("text mode wrote to stdout: %q", &stdout)
	}
	if n := strings.Count(stderr.String(), ": [donecall] "); n != len(got) {
		t.Fatalf("text mode printed %d findings, -json %d:\n%s", n, len(got), &stderr)
	}
}

// TestTablesAreLive loads the real tree and holds every row of the
// table-driven analyzers to a function that exists and is called. A rename
// that leaves a row naming nothing, or a row whose function nothing calls
// any more, has its analyzer check nothing with no finding to say so.
func TestTablesAreLive(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	// Every function the tree declares or calls, with its call sites.
	calls := make(map[*types.Func]int)
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Defs {
			if fn, ok := obj.(*types.Func); ok {
				calls[fn] += 0
			}
		}
		for _, f := range p.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := flow.CalleeFunc(p.TypesInfo, call); fn != nil {
						calls[fn]++
					}
				}
				return true
			})
		}
	}
	for _, table := range []struct {
		analyzer string
		rows     []flow.Callee
	}{
		{"donecall", donecall.Table.Callees()},
		{"poolpair", poolpair.Table.Callees()},
		{"relayclass", relayclass.HeadReads},
	} {
		for _, row := range table.rows {
			declared, called := false, 0
			for fn, n := range calls {
				if row.Matches(fn) {
					declared, called = true, called+n
				}
			}
			if !declared {
				t.Errorf("%s: row %+v names no function in the tree", table.analyzer, row)
			} else if called == 0 {
				t.Errorf("%s: row %+v names functions nothing in the tree calls", table.analyzer, row)
			}
		}
	}
}
