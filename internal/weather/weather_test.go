package weather

import (
	"math"
	"strings"
	"testing"
)

// coarse is a fast grid for tests: 10-degree cells, 6-day sampling.
func coarse() ReanalysisSpec {
	return ReanalysisSpec{Days: 72, LatStep: 10, LonStep: 30, NoiseK: 0.5, Seed: 7}
}

func TestSpecValidation(t *testing.T) {
	bad := []ReanalysisSpec{
		{},
		{Days: 1, LatStep: 0, LonStep: 1},
		{Days: 1, LatStep: 100, LonStep: 1},
		{Days: 1, LatStep: 1, LonStep: 0},
		{Days: 1, LatStep: 1, LonStep: 1, NoiseK: -1},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	a, err := Generate(coarse())
	if err != nil {
		t.Fatal(err)
	}
	sh := a.Shape()
	if sh[0] != 72 || sh[1] != 19 || sh[2] != 12 {
		t.Fatalf("shape = %v", sh)
	}
	// physically sane temperatures (Kelvin)
	for _, v := range a.Values() {
		if v < 180 || v > 340 {
			t.Fatalf("temperature %v K out of physical range", v)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(coarse())
	b, _ := Generate(coarse())
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("generation must be deterministic in the seed")
		}
	}
	spec := coarse()
	spec.Seed = 8
	c, _ := Generate(spec)
	if c.Values()[0] == a.Values()[0] {
		t.Fatal("different seeds should differ")
	}
}

func TestAnalyzePaperShape(t *testing.T) {
	// The qualitative facts the BWW figure shows.
	a, err := Generate(coarse())
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	// 1. Equator warmer than poles in the annual mean.
	lats, _ := an.ZonalAnnualMean.Coords("lat")
	profile := an.ZonalAnnualMean.Values()
	var equator, northPole, southPole float64
	for i, lat := range lats {
		switch {
		case lat == 0:
			equator = profile[i]
		case lat == 90:
			northPole = profile[i]
		case lat == -90:
			southPole = profile[i]
		}
	}
	if equator <= northPole+20 || equator <= southPole+20 {
		t.Fatalf("equator %v must be much warmer than poles (%v, %v)", equator, northPole, southPole)
	}
	// 2. Northern hemisphere has the larger seasonal swing.
	if an.AmplitudeNorth <= an.AmplitudeSouth {
		t.Fatalf("NH amplitude %v must exceed SH %v", an.AmplitudeNorth, an.AmplitudeSouth)
	}
	// 3. Global mean near the observed ~288 K.
	if an.GlobalMeanK < 275 || an.GlobalMeanK > 300 {
		t.Fatalf("global mean = %v K", an.GlobalMeanK)
	}
}

func TestSeasonalAntiphase(t *testing.T) {
	a, _ := Generate(coarse())
	an, _ := Analyze(a)
	// Mid-year months should be warm at +60 and cold at -60.
	sz := an.SeasonalZonal
	lats, _ := sz.Coords("lat")
	months, _ := sz.Coords("time")
	var n60, s60 int
	for i, lat := range lats {
		if lat == 60 {
			n60 = i
		}
		if lat == -60 {
			s60 = i
		}
	}
	warmest := func(latIdx int) float64 {
		best, bestM := math.Inf(-1), 0.0
		for mi, m := range months {
			v, _ := sz.At(mi, latIdx)
			if v > best {
				best, bestM = v, m
			}
		}
		return bestM
	}
	wn, ws := warmest(n60), warmest(s60)
	// Peaks should be roughly half a year apart (indices differ by >= 2 months).
	diff := math.Abs(wn - ws)
	if diff > 6 {
		diff = 12 - diff
	}
	if diff < 2 {
		t.Fatalf("hemispheres not in antiphase: peaks at months %v and %v", wn, ws)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	spec := ReanalysisSpec{Days: 4, LatStep: 45, LonStep: 90, NoiseK: 0, Seed: 1}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeCSV(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "day,lat,lon,temp\n") {
		t.Fatalf("csv header: %q", string(data[:40]))
	}
	back, err := DecodeCSV(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Values()) != len(a.Values()) {
		t.Fatal("size mismatch after round trip")
	}
	av, bv := a.Values(), back.Values()
	for i := range av {
		if math.Abs(av[i]-bv[i]) > 0.002 { // CSV stores 3 decimals
			t.Fatalf("value %d: %v vs %v", i, av[i], bv[i])
		}
	}
}

func TestDecodeCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"a,b\n1,2\n",
		"day,lat,lon,temp\n0,0,0,280\n0,0,0,281\n", // duplicate cell -> row/grid mismatch
		"day,lat,lon,temp\nx,0,0,280\n",            // non-numeric coordinate
	}
	for i, src := range cases {
		if _, err := DecodeCSV([]byte(src)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestHeatmapFigure(t *testing.T) {
	a, _ := Generate(coarse())
	an, _ := Analyze(a)
	h, err := an.Heatmap()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rows) != 19 {
		t.Fatalf("rows = %d", len(h.Rows))
	}
	if h.RowLabels[0] != "+90" { // north on top
		t.Fatalf("top label = %q", h.RowLabels[0])
	}
	ascii, err := h.ASCII()
	if err != nil || !strings.Contains(ascii, "zonal mean") {
		t.Fatalf("ascii render: %v", err)
	}
	svg, err := h.SVG()
	if err != nil || !strings.Contains(svg, "<rect") {
		t.Fatalf("svg render: %v", err)
	}
}
