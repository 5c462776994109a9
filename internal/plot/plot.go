// Package plot renders experiment figures as deterministic ASCII and SVG
// artifacts — the analysis/visualization tier of the Popper toolchain
// (the role Jupyter/Gnuplot play in the paper). Figures regenerate from
// results tables via versioned code, never by hand, so every figure in a
// Popper repository is a pure function of its results.csv.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Bucket is one histogram bin: [Lo, Hi) except the last, which is closed.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Histogram is a binned distribution (Figure torpor-variability's form).
type Histogram struct {
	Title   string
	XLabel  string
	Width   float64
	Buckets []Bucket
}

// NewHistogram bins values with the given bucket width. Bucket boundaries
// are aligned to multiples of width, matching the paper's "(2.2, 2.3]"
// convention: a value x lands in the bucket whose half-open interval
// (lo, hi] contains it.
func NewHistogram(values []float64, width float64) (*Histogram, error) {
	if width <= 0 {
		return nil, fmt.Errorf("plot: bucket width must be positive")
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("plot: no values to bin")
	}
	counts := make(map[int]int)
	minB, maxB := math.MaxInt32, math.MinInt32
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("plot: non-finite value %v", v)
		}
		// (lo, hi] binning: ceil(v/width) - 1 gives the bucket index whose
		// interval (i*width, (i+1)*width] contains v.
		b := int(math.Ceil(v/width)) - 1
		if float64(b+1)*width < v { // guard float error: v above bucket
			b++
		}
		if float64(b)*width >= v { // guard float error: v at/below lower edge
			b--
		}
		counts[b]++
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	h := &Histogram{Width: width}
	for b := minB; b <= maxB; b++ {
		h.Buckets = append(h.Buckets, Bucket{
			Lo:    float64(b) * width,
			Hi:    float64(b+1) * width,
			Count: counts[b],
		})
	}
	return h, nil
}

// Mode returns the bucket with the highest count (first on ties).
func (h *Histogram) Mode() Bucket {
	best := h.Buckets[0]
	for _, b := range h.Buckets[1:] {
		if b.Count > best.Count {
			best = b
		}
	}
	return best
}

// Total returns the number of binned values.
func (h *Histogram) Total() int {
	n := 0
	for _, b := range h.Buckets {
		n += b.Count
	}
	return n
}

// ASCII renders the histogram with one bar row per bucket.
func (h *Histogram) ASCII() string {
	var sb strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&sb, "%s\n", h.Title)
	}
	maxCount := 0
	for _, b := range h.Buckets {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	const maxBar = 50
	for _, b := range h.Buckets {
		bar := 0
		if maxCount > 0 {
			bar = b.Count * maxBar / maxCount
		}
		fmt.Fprintf(&sb, "(%5.2f, %5.2f] |%-*s %d\n", b.Lo, b.Hi, maxBar, strings.Repeat("#", bar), b.Count)
	}
	if h.XLabel != "" {
		fmt.Fprintf(&sb, "x: %s\n", h.XLabel)
	}
	return sb.String()
}

// SVG renders the histogram as a standalone SVG document.
func (h *Histogram) SVG() string {
	const w, ht, pad = 640, 360, 48
	maxCount := 0
	for _, b := range h.Buckets {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	if maxCount == 0 {
		maxCount = 1
	}
	var sb strings.Builder
	svgHeader(&sb, w, ht, h.Title)
	n := len(h.Buckets)
	barW := float64(w-2*pad) / float64(n)
	for i, b := range h.Buckets {
		barH := float64(float64(b.Count) / float64(maxCount) * float64(ht-2*pad))
		x := float64(pad) + float64(float64(i)*barW)
		y := float64(ht-pad) - barH
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#4878a8" stroke="#ffffff"/>`+"\n",
			x, y, barW, barH)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" font-size="9" text-anchor="middle">%.1f</text>`+"\n",
			x+float64(barW/2), ht-pad+14, b.Hi)
	}
	axis(&sb, w, ht, pad, h.XLabel, "count")
	sb.WriteString("</svg>\n")
	return sb.String()
}

// Series is one named line in a LineChart.
type Series struct {
	Name string
	X, Y []float64
}

// LineChart plots one or more series (Figure gassyfs-git's form).
type LineChart struct {
	Title, XLabel, YLabel string
	Series                []Series
	// LogY requests a logarithmic y axis in the ASCII rendering.
	LogY bool
}

// Add appends a series after validating lengths.
func (c *LineChart) Add(name string, x, y []float64) error {
	if len(x) != len(y) || len(x) == 0 {
		return fmt.Errorf("plot: series %q has mismatched or empty data", name)
	}
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			return fmt.Errorf("plot: series %q has NaN at %d", name, i)
		}
	}
	c.Series = append(c.Series, Series{Name: name, X: append([]float64(nil), x...), Y: append([]float64(nil), y...)})
	return nil
}

func (c *LineChart) bounds() (xmin, xmax, ymin, ymax float64, err error) {
	if len(c.Series) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("plot: chart has no series")
	}
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	return xmin, xmax, ymin, ymax, nil
}

// ASCII renders the chart on a character grid with per-series markers.
func (c *LineChart) ASCII() (string, error) {
	const cols, rows = 72, 20
	xmin, xmax, ymin, ymax, err := c.bounds()
	if err != nil {
		return "", err
	}
	yTo := func(y float64) float64 { return y }
	if c.LogY {
		if ymin <= 0 {
			return "", fmt.Errorf("plot: log y axis requires positive values")
		}
		yTo = math.Log10
	}
	lo, hi := yTo(ymin), yTo(ymax)
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	markers := "*o+x@%"
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			cx := int((s.X[i] - xmin) / (xmax - xmin) * float64(cols-1))
			cy := int((yTo(s.Y[i]) - lo) / (hi - lo) * float64(rows-1))
			grid[rows-1-cy][cx] = m
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	fmt.Fprintf(&sb, "%10.3g +%s\n", ymax, strings.Repeat("-", cols))
	for _, row := range grid {
		fmt.Fprintf(&sb, "%10s |%s\n", "", row)
	}
	fmt.Fprintf(&sb, "%10.3g +%s\n", ymin, strings.Repeat("-", cols))
	fmt.Fprintf(&sb, "%10s  %-8.3g%*s\n", "", xmin, cols-8, fmt.Sprintf("%.3g", xmax))
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&sb, "x: %s   y: %s\n", c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&sb, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return sb.String(), nil
}

// SVG renders the chart as a standalone SVG document with polylines.
func (c *LineChart) SVG() (string, error) {
	const w, ht, pad = 640, 360, 48
	xmin, xmax, ymin, ymax, err := c.bounds()
	if err != nil {
		return "", err
	}
	colors := []string{"#4878a8", "#a85448", "#48a878", "#a89a48", "#7848a8", "#484848"}
	var sb strings.Builder
	svgHeader(&sb, w, ht, c.Title)
	for si, s := range c.Series {
		// sort points by x for a sane polyline
		type pt struct{ x, y float64 }
		pts := make([]pt, len(s.X))
		for i := range s.X {
			pts[i] = pt{s.X[i], s.Y[i]}
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
		var coords []string
		for _, p := range pts {
			px := float64(pad) + float64((p.x-xmin)/(xmax-xmin)*float64(w-2*pad))
			py := float64(ht-pad) - float64((p.y-ymin)/(ymax-ymin)*float64(ht-2*pad))
			coords = append(coords, fmt.Sprintf("%.1f,%.1f", px, py))
		}
		color := colors[si%len(colors)]
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(coords, " "), color)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="11" fill="%s">%s</text>`+"\n",
			pad+8, pad+14+16*si, color, s.Name)
	}
	axis(&sb, w, ht, pad, c.XLabel, c.YLabel)
	sb.WriteString("</svg>\n")
	return sb.String(), nil
}

// Heatmap plots a matrix of values (Figure bww-airtemp's form).
type Heatmap struct {
	Title, XLabel, YLabel string
	// Rows[i][j] is the cell value at row i, column j.
	Rows      [][]float64
	RowLabels []string
	ColLabels []string
}

// ASCII renders the heatmap with density shading.
func (h *Heatmap) ASCII() (string, error) {
	if len(h.Rows) == 0 {
		return "", fmt.Errorf("plot: empty heatmap")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range h.Rows {
		for _, v := range row {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	shades := " .:-=+*#%@"
	var sb strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&sb, "%s\n", h.Title)
	}
	for i, row := range h.Rows {
		label := ""
		if i < len(h.RowLabels) {
			label = h.RowLabels[i]
		}
		fmt.Fprintf(&sb, "%12s |", label)
		for _, v := range row {
			idx := int((v - lo) / (hi - lo) * float64(len(shades)-1))
			sb.WriteByte(shades[idx])
		}
		sb.WriteString("|\n")
	}
	fmt.Fprintf(&sb, "scale: %q maps [%.4g, %.4g]\n", shades, lo, hi)
	if h.XLabel != "" || h.YLabel != "" {
		fmt.Fprintf(&sb, "x: %s   y: %s\n", h.XLabel, h.YLabel)
	}
	return sb.String(), nil
}

// SVG renders the heatmap as colored cells.
func (h *Heatmap) SVG() (string, error) {
	if len(h.Rows) == 0 {
		return "", fmt.Errorf("plot: empty heatmap")
	}
	const w, ht, pad = 640, 360, 48
	lo, hi := math.Inf(1), math.Inf(-1)
	cols := 0
	for _, row := range h.Rows {
		if len(row) > cols {
			cols = len(row)
		}
		for _, v := range row {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	var sb strings.Builder
	svgHeader(&sb, w, ht, h.Title)
	cellW := float64(w-2*pad) / float64(cols)
	cellH := float64(ht-2*pad) / float64(len(h.Rows))
	for i, row := range h.Rows {
		for j, v := range row {
			frac := (v - lo) / (hi - lo)
			// blue (cold) to red (hot)
			r := int(40 + float64(200*frac))
			b := int(240 - float64(200*frac))
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="rgb(%d,64,%d)"/>`+"\n",
				float64(pad)+float64(float64(j)*cellW), float64(pad)+float64(float64(i)*cellH), cellW+0.5, cellH+0.5, r, b)
		}
	}
	axis(&sb, w, ht, pad, h.XLabel, h.YLabel)
	sb.WriteString("</svg>\n")
	return sb.String(), nil
}

func svgHeader(sb *strings.Builder, w, h int, title string) {
	fmt.Fprintf(sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(sb, `<rect width="%d" height="%d" fill="#ffffff"/>`+"\n", w, h)
	if title != "" {
		fmt.Fprintf(sb, `<text x="%d" y="20" font-size="14" text-anchor="middle">%s</text>`+"\n", w/2, escape(title))
	}
}

func axis(sb *strings.Builder, w, h, pad int, xlabel, ylabel string) {
	fmt.Fprintf(sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", pad, h-pad, w-pad, h-pad)
	fmt.Fprintf(sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", pad, pad, pad, h-pad)
	if xlabel != "" {
		fmt.Fprintf(sb, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n", w/2, h-8, escape(xlabel))
	}
	if ylabel != "" {
		fmt.Fprintf(sb, `<text x="14" y="%d" font-size="12" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
			h/2, h/2, escape(ylabel))
	}
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
