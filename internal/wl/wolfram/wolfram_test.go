package wolfram

import (
	"testing"

	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl/wltest"
)

func newScheme(lines, period, seed uint64) (*nvm.Device, *Scheme) {
	dev := wltest.Device(lines, 0)
	return dev, New(dev, Config{Lines: lines, Period: period, Seed: seed})
}

func TestInitialIdentity(t *testing.T) {
	_, s := newScheme(256, 8, 1)
	for lma := uint64(0); lma < 256; lma++ {
		if s.Translate(lma) != lma {
			t.Fatalf("initial mapping not identity at %d", lma)
		}
	}
}

func TestBijectionAndIntegrityUnderLoad(t *testing.T) {
	dev, s := newScheme(512, 2, 3)
	wltest.Exercise(t, dev, s, 30000, 4)
}

func TestSwapDispersesAttackedLine(t *testing.T) {
	dev, s := newScheme(1024, 1, 5)
	wltest.Fill(dev, s)
	homes := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		s.Access(trace.Write, 17)
		homes[s.Translate(17)] = true
	}
	// Uniform random partners at line granularity: the attacked line should
	// visit a large share of the 1024 physical lines.
	if len(homes) < 400 {
		t.Fatalf("attacked line visited only %d physical lines", len(homes))
	}
}

func TestWriteOverheadIsTwoOverPeriod(t *testing.T) {
	dev, s := newScheme(4096, 8, 7)
	wltest.Fill(dev, s)
	for i := uint64(0); i < 400000; i++ {
		s.Access(trace.Write, i%4096)
	}
	oh := s.Stats().WriteOverhead()
	if oh < 0.20 || oh > 0.30 {
		t.Fatalf("overhead %.4f, want ~2/8", oh)
	}
	_ = dev
}

// The decoder absorbs the device's spare remaps: retiring a line to a spare
// shows up in the scheme's Remaps with no TableWrites — WoLFRaM's
// integrated fault tolerance, not a second indirection layer.
func TestSpareRemapsFoldIntoDecoder(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 64, SpareLines: 4, Endurance: 10, TrackData: true})
	s := New(dev, Config{Lines: 64, Period: 1 << 40, Seed: 1}) // no wear-leveling swaps
	before := s.Stats().Remaps
	for i := 0; i < 25; i++ { // endurance 10: two spare consumptions by write 21
		s.Access(trace.Write, 9)
	}
	st := s.Stats()
	if st.Remaps-before < 2 {
		t.Fatalf("decoder saw %d remaps, want the device's spare replacements", st.Remaps-before)
	}
	if st.TableWrites != 0 {
		t.Fatalf("TableWrites = %d; decoder reprogramming charges no table writes", st.TableWrites)
	}
}

func TestLowOverheadMetadata(t *testing.T) {
	_, s := newScheme(256, 8, 13)
	if s.OverheadBits() != 64 {
		t.Fatalf("OverheadBits = %d; the mapping lives in the decoder", s.OverheadBits())
	}
	if s.Name() != "WoLFRaM" || s.Lines() != 256 {
		t.Fatal("metadata")
	}
}

func TestConstructorPanics(t *testing.T) {
	dev := wltest.Device(64, 0)
	for _, cfg := range []Config{
		{Lines: 63, Period: 8},
		{Lines: 64, Period: 0},
		{Lines: 256, Period: 8}, // device too small
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
