package nvmwear

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"nvmwear/internal/fault"
)

func demoSeries() []Series {
	a := Series{Label: "A"}
	a.Append(1, 10.5)
	a.Append(2, 20)
	b := Series{Label: "B"}
	b.Append(2, 99)
	return []Series{a, b}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "x", demoSeries()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][0] != "x" || rows[0][1] != "A" || rows[0][2] != "B" {
		t.Fatalf("header: %v", rows[0])
	}
	if rows[1][1] != "10.5" || rows[1][2] != "" {
		t.Fatalf("row 1: %v", rows[1])
	}
	if rows[2][1] != "20" || rows[2][2] != "99" {
		t.Fatalf("row 2: %v", rows[2])
	}
}

// TestSeriesGridMatchesScan compares seriesGrid with the per-cell scan it
// replaced, which looked each cell up by scanning the series' X for the
// first point at the row's x: on missing points, a repeated x, a negative
// zero and a NaN, which no row can match.
func TestSeriesGridMatchesScan(t *testing.T) {
	series := demoSeries()
	series = append(series,
		Series{Label: "C", X: []float64{3, 1, 3, math.Copysign(0, -1)}, Y: []float64{1, 2, 3, 4}},
		Series{Label: "D", X: []float64{0, math.NaN(), 2.5}, Y: []float64{5, 6, 7}},
		Series{Label: "E"})
	format := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var want [][]string
	for _, x := range unionX(series) {
		row := []string{format(x)}
		for _, s := range series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = format(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		want = append(want, row)
	}
	if got := seriesGrid(series, format, format); !reflect.DeepEqual(got, want) {
		t.Fatalf("grid %q, the scan gives %q", got, want)
	}
}

func TestWriteSeriesJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesJSON(&buf, "regions", demoSeries()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		XName  string `json:"x"`
		Series []struct {
			Label string    `json:"label"`
			X     []float64 `json:"x"`
			Y     []float64 `json:"y"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.XName != "regions" || len(doc.Series) != 2 {
		t.Fatalf("doc: %+v", doc)
	}
	if doc.Series[0].Label != "A" || doc.Series[0].Y[0] != 10.5 {
		t.Fatalf("series: %+v", doc.Series[0])
	}
}

func TestWriteTableCSV(t *testing.T) {
	var buf bytes.Buffer
	tab := Table{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if err := WriteTableCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Fatalf("csv: %q", got)
	}
}

func TestFormatSeries(t *testing.T) {
	for _, format := range []string{"", "text", "csv", "json"} {
		var buf bytes.Buffer
		if err := FormatSeries(&buf, format, "t", "x", demoSeries()); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
	if err := FormatSeries(&bytes.Buffer{}, "xml", "t", "x", nil); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestCrashRecoveryFacade(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Scheme: SAWL, Lines: 1 << 12, SpareLines: 1, Endurance: 1 << 30,
		Period: 8, CMTEntries: 256, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50000; i++ {
		sys.Write(i * 2654435761 % (1 << 12))
	}
	ckpt := sys.Checkpoint()
	if ckpt == nil {
		t.Fatal("nil checkpoint for SAWL")
	}
	rec, err := RecoverSystem(sys, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for lma := uint64(0); lma < 1<<12; lma++ {
		if rec.Translate(lma) != sys.Translate(lma) {
			t.Fatalf("mapping diverged at %d", lma)
		}
	}
	// Non-tiered schemes refuse.
	base, _ := NewSystem(SystemConfig{Scheme: Baseline, Lines: 1 << 10, SpareLines: 1, Endurance: 1})
	if base.Checkpoint() != nil {
		t.Fatal("baseline produced a checkpoint")
	}
	if _, err := RecoverSystem(base, nil); err == nil {
		t.Fatal("baseline recovery accepted")
	}
	// Corrupted checkpoint refused at the facade too.
	if _, err := RecoverSystem(sys, ckpt[:10]); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// A recovered controller keeps the original system's metadata-fault
// injection armed: NewSystem and RecoverSystem build the tiered engine from
// one configuration.
func TestRecoverSystemKeepsFaultInjection(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Scheme: SAWL, Lines: 1 << 12, SpareLines: 1, Endurance: 1 << 30,
		Period: 8, CMTEntries: 256, Seed: 3,
		Fault: fault.Config{MetadataRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	writes := func(s *System) {
		for i := uint64(0); i < 50000; i++ {
			s.Write(i * 2654435761 % (1 << 12))
		}
	}
	writes(sys)
	if sys.Stats().MetaFaults == 0 {
		t.Fatal("no metadata faults injected before the checkpoint")
	}
	rec, err := RecoverSystem(sys, sys.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	writes(rec)
	if rec.Stats().MetaFaults == 0 {
		t.Fatal("recovered system injected no metadata faults")
	}
}
