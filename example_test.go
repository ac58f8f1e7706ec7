package nvmwear_test

// Godoc examples for the public API.

import (
	"fmt"

	"nvmwear"
	"nvmwear/internal/core"
	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
)

// ExampleNewSystem builds a SAWL-protected system and serves a few
// accesses.
func ExampleNewSystem() {
	sys, err := nvmwear.NewSystem(nvmwear.SystemConfig{
		Scheme:    nvmwear.SAWL,
		Lines:     1 << 12,
		Endurance: 1 << 30,
	})
	if err != nil {
		panic(err)
	}
	sys.Write(100)
	fmt.Println(sys.SchemeName(), sys.Alive())
	// Output: SAWL true
}

// ExampleSystem_RunLifetime measures how much of the ideal lifetime a
// scheme achieves under attack.
func ExampleSystem_RunLifetime() {
	sys, _ := nvmwear.NewSystem(nvmwear.SystemConfig{
		Scheme:      nvmwear.PCMS,
		Lines:       1 << 10,
		SpareLines:  32,
		Endurance:   500,
		RegionLines: 4,
		Period:      4,
		Seed:        1,
	})
	res, _ := sys.RunLifetime(nvmwear.WorkloadSpec{
		Kind: nvmwear.WorkloadRAA, Target: 7,
	}, 0)
	fmt.Println(res.Normalized > 0.2) // hybrid schemes survive RAA
	// Output: true
}

// ExampleProjectLifetime reproduces the paper's Sec 2.2 arithmetic.
func ExampleProjectLifetime() {
	p := nvmwear.ProjectLifetime(64<<30, 1e5, float64(1<<30), 1.0)
	fmt.Printf("%.1f months\n", p.Ideal().Hours()/(24*30))
	// Output: 2.5 months
}

// ExampleWorkloadSpec_Build instantiates a SPEC-like workload generator.
func ExampleWorkloadSpec_Build() {
	stream, name, _ := nvmwear.WorkloadSpec{
		Kind: nvmwear.WorkloadSPEC, Name: "gcc", Seed: 1,
	}.Build(1 << 20)
	r, _ := trace.NewCursor(stream, 1).Next()
	fmt.Println(name, r.Addr < 1<<20)
	// Output: gcc true
}

// ExampleSystem_Stats runs a gcc-like workload against a SAWL-protected
// device until it wears out, then reads the controller's statistics.
func ExampleSystem_Stats() {
	sys, err := nvmwear.NewSystem(nvmwear.SystemConfig{
		Scheme:     nvmwear.SAWL,
		Lines:      1 << 12,
		SpareLines: 1 << 7,
		Endurance:  200,
		Period:     8,
		CMTEntries: 256,
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	res, err := sys.RunLifetime(nvmwear.WorkloadSpec{
		Kind: nvmwear.WorkloadSPEC, Name: "gcc", Seed: 1,
	}, 0)
	if err != nil {
		panic(err)
	}
	st := sys.Stats()
	fmt.Printf("normalized lifetime: %.1f%% of ideal (%d writes served)\n",
		100*res.Normalized, res.Served)
	fmt.Printf("write overhead:      %.2f%%\n", 100*st.WriteOverhead)
	fmt.Printf("CMT hit rate:        %.1f%%\n", 100*st.CMTHitRate)
	fmt.Printf("wear Gini:           %.3f (0 = perfectly uniform)\n", st.WearGini)
	// Output:
	// normalized lifetime: 49.5% of ideal (436875 writes served)
	// write overhead:      32.61%
	// CMT hit rate:        68.1%
	// wear Gini:           0.134 (0 = perfectly uniform)
}

// Example_adaptiveGranularity watches SAWL's region size respond to a
// workload whose locality changes at runtime (the behaviour behind the
// paper's Figs 12-14). A tight hot set fits the CMT at fine granularity; a
// scattered sweep far beyond the CMT's reach collapses the hit rate, so
// SAWL merges regions to recover it; when the hot set returns, the hit rate
// saturates and SAWL splits the regions back down.
func Example_adaptiveGranularity() {
	var last core.Sample
	sys, err := nvmwear.NewSystem(nvmwear.SystemConfig{
		Scheme:            nvmwear.SAWL,
		Lines:             1 << 20,
		SpareLines:        1,
		Endurance:         1 << 30, // observe adaptation, not wear-out
		Period:            64,
		CMTEntries:        512,
		ObservationWindow: 1 << 12,
		SettlingWindow:    1 << 12,
		Seed:              11,
		OnSample:          func(s core.Sample) { last = s },
	})
	if err != nil {
		panic(err)
	}
	src := rng.New(13)
	hot := func() uint64 { return src.Uint64n(1 << 11) }  // 2K hot lines
	cold := func() uint64 { return src.Uint64n(1 << 20) } // the full space
	for _, ph := range []struct {
		name     string
		requests int
		addr     func() uint64
	}{
		{"tight hot set", 100000, hot},
		{"scattered sweep", 200000, cold},
		{"tight hot set again", 200000, hot},
	} {
		for i := 0; i < ph.requests; i++ {
			sys.Write(ph.addr())
		}
		fmt.Printf("%-19s  hit rate %5.1f%%  region %5.1f lines  %s\n",
			ph.name, 100*last.HitRate, last.AvgRegionLines, last.Mode)
	}
	// Output:
	// tight hot set        hit rate 100.0%  region   4.0 lines  steady
	// scattered sweep      hit rate   6.6%  region 128.6 lines  merge
	// tight hot set again  hit rate  97.3%  region   4.4 lines  steady
}
