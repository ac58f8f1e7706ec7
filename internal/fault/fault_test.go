package fault

import "testing"

func TestDisabledConfigYieldsNilInjector(t *testing.T) {
	if in := NewInjector(Config{Seed: 42}, StreamDevice); in != nil {
		t.Fatalf("disabled config produced injector %v", in)
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if k := in.WriteFault(); k != WriteOK {
			t.Fatalf("nil injector write fault %v", k)
		}
		if in.ReadDisturb() != 0 {
			t.Fatal("nil injector read disturb")
		}
		if in.CorruptMetadata() {
			t.Fatal("nil injector metadata corruption")
		}
		if in.RetryFails() {
			t.Fatal("nil injector retry failure")
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	cfg := Config{
		TransientWriteRate: 0.1, StuckAtRate: 0.01,
		ReadDisturbRate: 0.05, MetadataRate: 0.02, Seed: 9,
	}
	a := NewInjector(cfg, StreamDevice)
	b := NewInjector(cfg, StreamDevice)
	for i := 0; i < 10000; i++ {
		if a.WriteFault() != b.WriteFault() {
			t.Fatalf("write fault stream diverged at %d", i)
		}
		if a.ReadDisturb() != b.ReadDisturb() {
			t.Fatalf("read disturb stream diverged at %d", i)
		}
		if a.CorruptMetadata() != b.CorruptMetadata() {
			t.Fatalf("metadata stream diverged at %d", i)
		}
	}
}

func TestSubstreamsIndependent(t *testing.T) {
	cfg := Config{TransientWriteRate: 0.5, Seed: 9}
	dev := NewInjector(cfg, StreamDevice)
	meta := NewInjector(cfg, StreamMetadata)
	same := true
	for i := 0; i < 64; i++ {
		if dev.WriteFault() != meta.WriteFault() {
			same = false
		}
	}
	if same {
		t.Fatal("device and metadata substreams identical")
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	cfg := Config{TransientWriteRate: 0.2, StuckAtRate: 0.05, Seed: 3}
	in := NewInjector(cfg, StreamDevice)
	const n = 100000
	var transient, stuck int
	for i := 0; i < n; i++ {
		switch in.WriteFault() {
		case WriteTransient:
			transient++
		case WriteStuck:
			stuck++
		}
	}
	if f := float64(transient) / n; f < 0.18 || f > 0.22 {
		t.Errorf("transient rate %.3f, want ~0.20", f)
	}
	if f := float64(stuck) / n; f < 0.04 || f > 0.06 {
		t.Errorf("stuck rate %.3f, want ~0.05", f)
	}
}

func TestReadDisturbBounds(t *testing.T) {
	in := NewInjector(Config{ReadDisturbRate: 0.5, MaxBitErrors: 3, Seed: 1}, StreamDevice)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		k := in.ReadDisturb()
		if k < 0 || k > 3 {
			t.Fatalf("bit errors %d outside [0,3]", k)
		}
		seen[k] = true
	}
	for k := 0; k <= 3; k++ {
		if !seen[k] {
			t.Errorf("bit-error count %d never drawn", k)
		}
	}
}
