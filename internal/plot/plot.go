// Package plot renders experiment series as standalone SVG line charts —
// stdlib-only figure output for the wlsim CLI, so every regenerated paper
// figure can be viewed as an image rather than an ASCII table.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart describes one figure.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool // log2 x axis (region-count sweeps)
	Series []Line
}

// Line is one curve.
type Line struct {
	Label string
	X     []float64
	Y     []float64
}

// palette cycles through visually distinct stroke colors.
var palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

const (
	width        = 800
	height       = 480
	marginLeft   = 70.0
	marginRight  = 160.0
	marginTop    = 40.0
	marginBottom = 55.0
	plotW        = width - marginLeft - marginRight
	plotH        = height - marginTop - marginBottom
)

// Render writes the chart as an SVG document.
func (c Chart) Render(w io.Writer) error {
	xMin, xMax, yMin, yMax := c.bounds()

	xPos := func(x float64) float64 {
		if c.LogX {
			x = math.Log2(math.Max(x, 1e-12))
		}
		if xMax == xMin {
			return marginLeft + plotW/2
		}
		return marginLeft + (x-xMin)/(xMax-xMin)*plotW
	}
	yPos := func(y float64) float64 {
		if yMax == yMin {
			return marginTop + plotH/2
		}
		return marginTop + plotH - (y-yMin)/(yMax-yMin)*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%g" y="24" font-family="sans-serif" font-size="16" font-weight="bold">%s</text>`+"\n",
		marginLeft, escape(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)

	// Y ticks (5).
	for i := 0; i <= 4; i++ {
		v := yMin + (yMax-yMin)*float64(i)/4
		y := yPos(v)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n",
			marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, y+4, formatTick(v))
	}
	// X ticks (up to 8 from data).
	for _, x := range c.xTicks(xMin, xMax) {
		px := xPos(x)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#eee"/>`+"\n",
			px, marginTop, px, marginTop+plotH)
		label := x
		if c.LogX {
			label = math.Pow(2, x)
		}
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			px, marginTop+plotH+16, formatTick(label))
	}

	// Axis labels.
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		marginLeft+plotW/2, height-12.0, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %g)">%s</text>`+"\n",
		marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))

	// Curves + legend.
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xPos(xVal(c, s.X[i])), yPos(s.Y[i])))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		for _, p := range pts {
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2.5" fill="%s"/>`+"\n",
				strings.Split(p, ",")[0], strings.Split(p, ",")[1], color)
		}
		ly := marginTop + 14*float64(si)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s" stroke-width="2"/>`+"\n",
			marginLeft+plotW+10, ly, marginLeft+plotW+30, ly, color)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			marginLeft+plotW+35, ly+4, escape(s.Label))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Steps converts a right-continuous level curve — x ascending, y[i] the
// level after x[i], y0 the level before x[0] (1.0 for survival curves) —
// into the point list a polyline renderer needs to draw it as a step
// function: every transition emits the pre-drop corner, so the rendered
// curve is horizontal runs joined by vertical drops instead of diagonals.
func Steps(x, y []float64, y0 float64) (sx, sy []float64) {
	if len(x) == 0 {
		return nil, nil
	}
	sx = make([]float64, 0, 2*len(x))
	sy = make([]float64, 0, 2*len(x))
	level := y0
	for i := range x {
		sx = append(sx, x[i], x[i])
		sy = append(sy, level, y[i])
		level = y[i]
	}
	return sx, sy
}

// xVal applies the log transform when configured.
func xVal(c Chart, x float64) float64 {
	if c.LogX {
		return math.Log2(math.Max(x, 1e-12))
	}
	return x
}

// bounds computes the data extents (x already log-transformed when LogX).
func (c Chart) bounds() (xMin, xMax, yMin, yMax float64) {
	xMin, yMin = math.Inf(1), math.Inf(1)
	xMax, yMax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x := xVal(c, s.X[i])
			if x < xMin {
				xMin = x
			}
			if x > xMax {
				xMax = x
			}
			if s.Y[i] < yMin {
				yMin = s.Y[i]
			}
			if s.Y[i] > yMax {
				yMax = s.Y[i]
			}
		}
	}
	if math.IsInf(xMin, 1) {
		xMin, xMax, yMin, yMax = 0, 1, 0, 1
	}
	if yMin > 0 {
		yMin = 0
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	return
}

// xTicks picks up to 8 tick positions across [xMin, xMax] (transformed
// space).
func (c Chart) xTicks(xMin, xMax float64) []float64 {
	seen := map[float64]bool{}
	var ticks []float64
	for _, s := range c.Series {
		for _, x := range s.X {
			v := xVal(c, x)
			if !seen[v] {
				seen[v] = true
				ticks = append(ticks, v)
			}
		}
	}
	if len(ticks) <= 8 {
		return ticks
	}
	out := make([]float64, 0, 8)
	step := float64(len(ticks)) / 8
	sortFloats(ticks)
	for i := 0.0; int(i) < len(ticks); i += step {
		out = append(out, ticks[int(i)])
	}
	return out
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// formatTick renders a tick value compactly.
func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	case av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// escape sanitizes text for SVG.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
