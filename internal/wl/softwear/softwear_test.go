package softwear

import (
	"testing"

	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl/wltest"
)

func newScheme(lines, q, sample, trigger uint64) (*nvm.Device, *Scheme) {
	dev := wltest.Device(lines, 0)
	return dev, New(dev, Config{Lines: lines, PageLines: q, SamplePeriod: sample, Trigger: trigger})
}

func TestInitialIdentity(t *testing.T) {
	_, s := newScheme(256, 8, 4, 4)
	for lma := uint64(0); lma < 256; lma++ {
		if s.Translate(lma) != lma {
			t.Fatalf("initial mapping not identity at %d", lma)
		}
	}
	if s.pages != 32 {
		t.Fatalf("pages = %d", s.pages)
	}
}

func TestBijectionAndIntegrityUnderLoad(t *testing.T) {
	dev, s := newScheme(512, 8, 2, 2)
	wltest.Exercise(t, dev, s, 30000, 4)
}

func TestHotPageMigratesToColdFrames(t *testing.T) {
	dev, s := newScheme(1024, 4, 2, 2)
	wltest.Fill(dev, s)
	homes := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		s.Access(trace.Write, 17)
		homes[s.Translate(17)/4] = true
	}
	// The hot page keeps trading frames with the coldest page; over many
	// rotations it must visit many distinct physical frames.
	if len(homes) < 16 {
		t.Fatalf("hot page visited only %d physical frames", len(homes))
	}
	if s.Stats().Remaps == 0 {
		t.Fatal("no rotations triggered")
	}
}

// Sampling is the whole point: only every S-th demand write is observed, so
// a trigger of T fires after S*T writes to a hot page, not T.
func TestSamplingDelaysTrigger(t *testing.T) {
	_, s := newScheme(256, 8, 8, 4)
	for i := 0; i < 8*4-1; i++ {
		s.Access(trace.Write, 3)
	}
	if s.Stats().Remaps != 0 {
		t.Fatalf("rotated after %d writes, before the %d-write sampled trigger", 8*4-1, 8*4)
	}
	s.Access(trace.Write, 3)
	if s.Stats().Remaps != 1 {
		t.Fatal("sampled trigger did not fire on schedule")
	}
}

func TestNoHardwareOverhead(t *testing.T) {
	_, s := newScheme(256, 8, 4, 4)
	if s.OverheadBits() != 0 {
		t.Fatalf("OverheadBits = %d; softwear keeps all state in software", s.OverheadBits())
	}
	if s.Name() != "SoftWear" || s.Lines() != 256 {
		t.Fatal("metadata")
	}
}

func TestConstructorPanics(t *testing.T) {
	dev := wltest.Device(64, 0)
	for _, cfg := range []Config{
		{Lines: 63, PageLines: 4, SamplePeriod: 4, Trigger: 4},
		{Lines: 64, PageLines: 3, SamplePeriod: 4, Trigger: 4},
		{Lines: 64, PageLines: 128, SamplePeriod: 4, Trigger: 4},
		{Lines: 64, PageLines: 4, SamplePeriod: 0, Trigger: 4},
		{Lines: 64, PageLines: 4, SamplePeriod: 4, Trigger: 0},
		{Lines: 64, PageLines: 64, SamplePeriod: 4, Trigger: 4}, // one page
		{Lines: 256, PageLines: 4, SamplePeriod: 4, Trigger: 4}, // device too small
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			New(dev, cfg)
		}()
	}
}
