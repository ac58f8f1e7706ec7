package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nvmwear"
	"nvmwear/internal/trace"
)

// failingClose is an output file whose writes succeed and whose Close
// fails, as on a file system that reports a failed write only at close.
type failingClose struct{ bytes.Buffer }

func (*failingClose) Close() error { return errors.New("close: no space left on device") }

func TestCloseErrorFailsTheRun(t *testing.T) {
	var stderr bytes.Buffer
	create := func(string) (io.WriteCloser, error) { return &failingClose{}, nil }
	code := run([]string{"-workload", "bpa", "-n", "100", "-lines", "1024", "-o", "bpa.trace"}, io.Discard, &stderr, create)
	if code != 1 || strings.Contains(stderr.String(), "wrote") || !strings.Contains(stderr.String(), "no space left") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and the close error", code, stderr.String())
	}
}

// TestWritesAndInspectsTrace writes a BPA trace to a file, reads it back
// against the generator, and inspects it.
func TestWritesAndInspectsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bpa.trace")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "bpa", "-n", "100", "-lines", "1024", "-o", path}, &stdout, &stderr, createFile); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "wrote 100 BPA requests") {
		t.Fatalf("stderr %q", stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadBPA, Seed: 42}.Build(1024)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.NewCursor(stream, 100)
	for i, r := range got {
		if w, _ := want.Next(); r != w {
			t.Fatalf("request %d: %+v, generator %+v", i, r, w)
		}
	}
	if len(got) != 100 {
		t.Fatalf("trace holds %d requests, want 100", len(got))
	}

	stdout.Reset()
	if code := run([]string{"-inspect", path}, &stdout, &stderr, createFile); code != 0 {
		t.Fatalf("inspect: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "requests      100\nwrites        100 (100.0%)") {
		t.Fatalf("inspect printed %q", stdout.String())
	}
}

// TestWritesText checks -text output across a chunk boundary against
// WriteText of the generator's requests.
func TestWritesText(t *testing.T) {
	const n = textChunk + 5
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "uniform", "-n", strconv.Itoa(n), "-lines", "1024", "-text"}, &stdout, &stderr, createFile); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	stream, _, err := nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadUniform, Seed: 42}.Build(1024)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]trace.Request, n)
	reqs := trace.NewCursor(stream, n)
	for i := range want {
		want[i], _ = reqs.Next()
	}
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, want); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != buf.String() {
		t.Fatalf("-text wrote %d bytes, want %d", stdout.Len(), buf.Len())
	}
}
