package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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
