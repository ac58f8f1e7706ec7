// Command wearviz runs a workload through a wear-leveling scheme and
// renders the resulting per-line wear distribution as an ASCII heat map —
// a quick way to *see* why a repeated-address attack destroys Start-Gap
// but not SAWL.
//
// Usage:
//
//	wearviz -scheme sawl -workload raa -n 2000000
//	wearviz -scheme rbsg -workload raa -n 2000000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nvmwear"
	"nvmwear/internal/trace"
)

// shades maps a wear bucket to a glyph, cold to hot.
var shades = []byte(" .:-=+*#%@")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes wearviz with the given arguments and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	var kinds []string
	for _, k := range nvmwear.Schemes() {
		kinds = append(kinds, string(k))
	}
	fs := flag.NewFlagSet("wearviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scheme := fs.String("scheme", "sawl", "scheme: "+strings.Join(kinds, "|"))
	workloadKind := fs.String("workload", "raa", "workload: raa|bpa|uniform|sequential|spec")
	name := fs.String("name", "gcc", "SPEC profile (workload=spec)")
	n := fs.Uint64("n", 1<<21, "requests to run")
	lines := fs.Uint64("lines", 1<<14, "device data lines")
	period := fs.Uint64("period", 16, "swapping period")
	seed := fs.Uint64("seed", 42, "seed")
	width := fs.Int("width", 64, "heat map width in cells")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *width < 1 {
		fmt.Fprintf(stderr, "wearviz: -width %d: the heat map needs at least one cell per row\n", *width)
		return 1
	}

	sys, err := nvmwear.NewSystem(nvmwear.SystemConfig{
		Scheme:     nvmwear.SchemeKind(*scheme),
		Lines:      *lines,
		SpareLines: 1 << 30, // observe wear without device death
		Endurance:  1 << 30,
		Period:     *period,
		Regions:    *lines >> 8,
		CMTEntries: 4096,
		Seed:       *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "wearviz:", err)
		return 1
	}
	stream, label, err := nvmwear.WorkloadSpec{
		Kind: nvmwear.WorkloadKind(*workloadKind), Name: *name, Seed: *seed,
	}.Build(*lines)
	if err != nil {
		fmt.Fprintln(stderr, "wearviz:", err)
		return 1
	}
	reqs := trace.NewCursor(stream, *n)
	for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
		if r.Op == trace.Write {
			sys.Write(r.Addr)
		} else {
			sys.Read(r.Addr)
		}
	}

	counts := sys.WearCounts()
	cells := min(*width*16, len(counts))
	per := len(counts) / cells
	sums := make([]uint64, cells)
	var maxSum uint64
	for i := 0; i < cells; i++ {
		for j := i * per; j < (i+1)*per; j++ {
			sums[i] += uint64(counts[j])
		}
		if sums[i] > maxSum {
			maxSum = sums[i]
		}
	}
	st := sys.Stats()
	fmt.Fprintf(stdout, "scheme=%s workload=%s requests=%d\n", sys.SchemeName(), label, *n)
	fmt.Fprintf(stdout, "wear: max=%d gini=%.3f overhead=%.2f%% cmt-hit=%.1f%%\n",
		st.MaxWear, st.WearGini, 100*st.WriteOverhead, 100*st.CMTHitRate)
	fmt.Fprintf(stdout, "heat map (%d lines per cell, @=hottest):\n", per)
	for i := 0; i < cells; i++ {
		if i%*width == 0 && i > 0 {
			fmt.Fprintln(stdout)
		}
		idx := 0
		if maxSum > 0 {
			idx = int(sums[i] * uint64(len(shades)-1) / maxSum)
		}
		fmt.Fprintf(stdout, "%c", shades[idx])
	}
	fmt.Fprintln(stdout)
	return 0
}
