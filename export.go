package nvmwear

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"nvmwear/internal/plot"
)

// This file provides machine-readable export of experiment results so the
// regenerated figures can be plotted or diffed outside the CLI's ASCII
// tables: CSV (one row per X value, one column per series) and JSON.

// WriteSeriesCSV writes a set of series sharing an X axis as CSV.
func WriteSeriesCSV(w io.Writer, xName string, series []Series) error {
	cw := csv.NewWriter(w)
	header := append([]string{xName}, labels(series)...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, x := range unionX(series) {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = strconv.FormatFloat(s.Y[i], 'g', -1, 64)
					break
				}
			}
			row = append(row, cell)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesJSON writes series as a JSON document:
// {"x": "...", "series": [{"label": ..., "x": [...], "y": [...]}, ...]}.
func WriteSeriesJSON(w io.Writer, xName string, series []Series) error {
	type jsSeries struct {
		Label string    `json:"label"`
		X     []float64 `json:"x"`
		Y     []float64 `json:"y"`
	}
	doc := struct {
		XName  string     `json:"x"`
		Series []jsSeries `json:"series"`
	}{XName: xName}
	for _, s := range series {
		doc.Series = append(doc.Series, jsSeries{Label: s.Label, X: s.X, Y: s.Y})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTableCSV writes a rendered Table as CSV.
func WriteTableCSV(w io.Writer, t Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// unionX returns the sorted union of all X values.
func unionX(series []Series) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// CheckFormat validates an output format name before a run starts (wlsim
// -format, serve's spec): "text", "csv" or "json"; empty means text.
func CheckFormat(format string) error {
	switch format {
	case "", "text", "csv", "json":
		return nil
	}
	return fmt.Errorf("nvmwear: unknown format %q (text|csv|json)", format)
}

// FormatSeries renders series in the requested format ("text", "csv" or
// "json") — the cmd/wlsim -format switch. Text is the series' table.
func FormatSeries(w io.Writer, format, title, xName string, series []Series) error {
	switch format {
	case "csv":
		return WriteSeriesCSV(w, xName, series)
	case "json":
		return WriteSeriesJSON(w, xName, series)
	}
	return formatTable(w, format, SeriesTable(title, xName, series, "%.2f"))
}

// formatTable renders a table in the requested format: aligned text, CSV,
// or one JSON document {"title": ..., "columns": [...], "rows": [[...]]}.
func formatTable(w io.Writer, format string, t Table) error {
	switch format {
	case "", "text":
		_, err := io.WriteString(w, t.Render())
		return err
	case "csv":
		return WriteTableCSV(w, t)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		}{t.Title, t.Columns, t.Rows})
	}
	return CheckFormat(format)
}

// WriteSVG renders the experiment figure as an SVG line chart with its
// registered axis metadata (wlsim -svg).
func (g SVG) WriteSVG(w io.Writer) error {
	return WriteSeriesSVG(w, g.Title, g.XName, g.YName, g.LogX, g.Series)
}

// WriteSeriesSVG renders series as an SVG line chart (wlsim -svg).
func WriteSeriesSVG(w io.Writer, title, xName, yName string, logX bool, series []Series) error {
	c := plot.Chart{Title: title, XLabel: xName, YLabel: yName, LogX: logX}
	for _, s := range series {
		c.Series = append(c.Series, plot.Line{Label: s.Label, X: s.X, Y: s.Y})
	}
	return c.Render(w)
}
