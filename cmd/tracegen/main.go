// Command tracegen generates, converts and inspects memory-request traces
// in this repository's binary trace format.
//
// Usage:
//
//	tracegen -workload spec -name gcc -n 1000000 -lines 4194304 -o gcc.trace
//	tracegen -inspect gcc.trace
//	tracegen -workload bpa -n 100000 -lines 65536 -text -o bpa.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nvmwear"
	"nvmwear/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, createFile))
}

// createFile creates the -o file.
func createFile(name string) (io.WriteCloser, error) { return os.Create(name) }

// run executes tracegen with the given arguments and returns its exit
// status; create opens the -o file.
func run(args []string, stdout, stderr io.Writer, create func(string) (io.WriteCloser, error)) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "spec", "workload kind: raa|bpa|uniform|sequential|spec")
	name := fs.String("name", "gcc", "SPEC profile name (workload=spec)")
	n := fs.Uint64("n", 1<<20, "requests to generate")
	lines := fs.Uint64("lines", 1<<22, "logical address space in lines")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("o", "", "output file (default stdout)")
	text := fs.Bool("text", false, "emit human-readable text instead of binary")
	inspect := fs.String("inspect", "", "summarize an existing binary trace file instead of generating")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *inspect != "" {
		if err := inspectTrace(*inspect, stdout); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		return 0
	}

	spec := nvmwear.WorkloadSpec{
		Kind: nvmwear.WorkloadKind(*workload),
		Name: *name,
		Seed: *seed,
	}
	stream, label, err := spec.Build(*lines)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	w := stdout
	var f io.WriteCloser
	if *out != "" {
		if f, err = create(*out); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		w = f
	}
	err = writeTrace(w, stream, *n, *text)
	// A file system may report a failed write only at close.
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "tracegen: wrote %d %s requests\n", *n, label)
	return 0
}

// textChunk is how many requests the text writer holds at a time.
const textChunk = 4096

// writeTrace writes the next n requests of stream to w, in the binary
// format or, with text set, the text format.
func writeTrace(w io.Writer, stream trace.Stream, n uint64, text bool) error {
	reqs := trace.NewCursor(stream, n)
	if text {
		// Write in chunks: n comes from the command line and may be far
		// larger than memory.
		rs := make([]trace.Request, 0, textChunk)
		for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
			if rs = append(rs, r); len(rs) == textChunk {
				if err := trace.WriteText(w, rs); err != nil {
					return err
				}
				rs = rs[:0]
			}
		}
		return trace.WriteText(w, rs)
	}
	tw := trace.NewWriter(w)
	for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// inspectTrace prints summary statistics of a binary trace file to w.
func inspectTrace(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	var reqs, writes uint64
	minA, maxA := ^uint64(0), uint64(0)
	unique := make(map[uint64]struct{})
	const uniqueCap = 1 << 22
	saturated := false
	for {
		req, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		reqs++
		if req.Op == trace.Write {
			writes++
		}
		if req.Addr < minA {
			minA = req.Addr
		}
		if req.Addr > maxA {
			maxA = req.Addr
		}
		if !saturated {
			unique[req.Addr] = struct{}{}
			if len(unique) >= uniqueCap {
				saturated = true
			}
		}
	}
	if reqs == 0 {
		fmt.Fprintln(w, "empty trace")
		return nil
	}
	uniq := fmt.Sprintf("%d", len(unique))
	if saturated {
		uniq = ">= " + uniq
	}
	fmt.Fprintf(w, "requests      %d\n", reqs)
	fmt.Fprintf(w, "writes        %d (%.1f%%)\n", writes, 100*float64(writes)/float64(reqs))
	fmt.Fprintf(w, "address range [%#x, %#x]\n", minA, maxA)
	fmt.Fprintf(w, "unique addrs  %s\n", uniq)
	return nil
}
