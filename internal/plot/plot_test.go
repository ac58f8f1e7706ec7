package plot

import (
	"bytes"
	"strings"
	"testing"
)

func demoChart() Chart {
	return Chart{
		Title:  "Demo & <chart>",
		XLabel: "regions",
		YLabel: "lifetime (%)",
		Series: []Line{
			{Label: "a", X: []float64{1, 2, 4, 8}, Y: []float64{10, 20, 30, 40}},
			{Label: "b", X: []float64{1, 2, 4, 8}, Y: []float64{40, 30, 20, 10}},
		},
	}
}

func TestRenderProducesValidSVGStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := demoChart().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "Demo &amp; &lt;chart&gt;",
		"regions", "lifetime", ">a<", ">b<",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in SVG", want)
		}
	}
	if strings.Count(out, "<polyline") != 2 {
		t.Fatalf("expected 2 polylines")
	}
}

func TestRenderLogX(t *testing.T) {
	c := demoChart()
	c.LogX = true
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	// Log ticks label the original (power-of-two) values.
	if !strings.Contains(buf.String(), ">8<") {
		t.Fatal("log ticks missing original values")
	}
}

func TestRenderEmptyChart(t *testing.T) {
	var buf bytes.Buffer
	if err := (Chart{Title: "empty"}).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "</svg>") {
		t.Fatal("no svg")
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		5:       "5",
		1500:    "1.5K",
		2000000: "2.0M",
		0.25:    "0.25",
	}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestManySeriesCycleColors(t *testing.T) {
	c := Chart{Title: "many"}
	for i := 0; i < 15; i++ {
		c.Series = append(c.Series, Line{
			Label: string(rune('a' + i)),
			X:     []float64{0, 1}, Y: []float64{float64(i), float64(i)},
		})
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<polyline") != 15 {
		t.Fatal("series dropped")
	}
}

func TestXTicksCapped(t *testing.T) {
	var line Line
	for i := 0; i < 100; i++ {
		line.X = append(line.X, float64(i))
		line.Y = append(line.Y, float64(i))
	}
	c := Chart{Series: []Line{line}}
	ticks := c.xTicks(0, 99)
	if len(ticks) > 9 {
		t.Fatalf("%d ticks", len(ticks))
	}
}

func TestStepsExpansion(t *testing.T) {
	// A right-continuous survival curve: at each x the level drops from the
	// previous value, so every input point becomes a vertical segment.
	sx, sy := Steps([]float64{1, 2, 4}, []float64{0.6, 0.3, 0}, 1)
	wantX := []float64{1, 1, 2, 2, 4, 4}
	wantY := []float64{1, 0.6, 0.6, 0.3, 0.3, 0}
	if len(sx) != len(wantX) {
		t.Fatalf("steps has %d points, want %d", len(sx), len(wantX))
	}
	for i := range wantX {
		if sx[i] != wantX[i] || sy[i] != wantY[i] {
			t.Fatalf("step %d = (%v, %v), want (%v, %v)", i, sx[i], sy[i], wantX[i], wantY[i])
		}
	}
	if sx, sy := Steps(nil, nil, 1); sx != nil || sy != nil {
		t.Fatalf("empty input: (%v, %v), want nil", sx, sy)
	}
}
