package main

import (
	"bytes"
	"strings"
	"testing"
)

// A width below one cell is a usage error, not a divide-by-zero or
// makeslice panic.
func TestRejectsWidthBelowOne(t *testing.T) {
	for _, width := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-width", width, "-n", "100", "-lines", "1024"}, &stdout, &stderr)
		if code != 1 {
			t.Errorf("-width %s: exit %d, want 1", width, code)
		}
		if !strings.Contains(stderr.String(), "-width "+width) {
			t.Errorf("-width %s: no diagnostic on stderr: %q", width, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-width %s: printed a heat map:\n%s", width, stdout.String())
		}
	}
}

func TestRendersHeatMap(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-width", "4", "-n", "1000", "-lines", "1024"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "scheme=SAWL workload=RAA requests=1000") ||
		!strings.Contains(out, "heat map (") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// 4 cells per row, 16 rows.
	rows := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	rows = rows[len(rows)-16:]
	for _, r := range rows {
		if len(r) != 4 {
			t.Fatalf("heat map row %q is not 4 cells wide:\n%s", r, out)
		}
	}
}
