// Package weather reproduces the paper's data-science use case: the Big
// Weather Web air-temperature analysis of the NCEP/NCAR Reanalysis 1
// dataset, performed with an xarray-style library (internal/ndarray).
//
// The real reanalysis is a proprietary-scale external data product, so
// this package generates a synthetic equivalent with the same structure
// (a global latitude/longitude grid sampled through time, in Kelvin) and
// the same first-order physics the published figure shows: temperature
// decreasing from equator to poles, a seasonal cycle in antiphase
// between hemispheres, and larger seasonal amplitude in the
// land-dominated northern hemisphere. The analysis code paths —
// selection, zonal means, seasonal group-bys, area-weighted global
// means — are identical to what would run on the real data.
package weather

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"popper/internal/detrand"
	"popper/internal/ndarray"
	"popper/internal/plot"
	"popper/internal/table"
)

// ReanalysisSpec configures the synthetic dataset.
type ReanalysisSpec struct {
	Days    int     // number of daily samples
	LatStep float64 // degrees between latitude grid lines
	LonStep float64 // degrees between longitude grid lines
	NoiseK  float64 // white-noise amplitude, Kelvin
	Seed    int64
}

func (s ReanalysisSpec) validate() error {
	switch {
	case s.Days <= 0:
		return fmt.Errorf("weather: days must be positive")
	case s.LatStep <= 0 || s.LatStep > 90 || s.LonStep <= 0 || s.LonStep > 180:
		return fmt.Errorf("weather: invalid grid resolution")
	case s.NoiseK < 0:
		return fmt.Errorf("weather: negative noise")
	}
	return nil
}

// landFraction approximates how land-dominated a latitude band is; the
// northern hemisphere holds most land, which drives its larger seasonal
// swing.
func landFraction(lat float64) float64 {
	if lat > 0 {
		return 0.45 + float64(0.25*math.Sin(lat*math.Pi/180))
	}
	return 0.25
}

// meanTemp is the annual-mean temperature at a latitude (Kelvin).
func meanTemp(lat float64) float64 {
	rad := lat * math.Pi / 180
	return 250 + float64(49*math.Cos(rad)*math.Cos(rad))
}

// seasonalAmplitude is the half peak-to-peak annual swing at a latitude.
func seasonalAmplitude(lat float64) float64 {
	return float64((2+26*math.Abs(lat)/90)*landFraction(lat)) * 2
}

// Generate builds the synthetic reanalysis array with dimensions
// (time, lat, lon). Time coordinates are day numbers starting at 0
// (January 1).
func Generate(spec ReanalysisSpec) (*ndarray.Array, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	var lats, lons, days []float64
	for lat := -90.0; lat <= 90.0+1e-9; lat += spec.LatStep {
		lats = append(lats, lat)
	}
	for lon := 0.0; lon < 360.0-1e-9; lon += spec.LonStep {
		lons = append(lons, lon)
	}
	for d := 0; d < spec.Days; d++ {
		days = append(days, float64(d))
	}
	arr, err := ndarray.New([]string{"time", "lat", "lon"}, map[string][]float64{
		"time": days, "lat": lats, "lon": lons,
	})
	if err != nil {
		return nil, err
	}
	rng := detrand.New(spec.Seed)
	arr.Fill(func(idx []int) float64 {
		day := days[idx[0]]
		lat := lats[idx[1]]
		lon := lons[idx[2]]
		// Seasonal phase: NH coldest near day 15, SH in antiphase.
		phase := 2 * math.Pi * (day - 196) / 365.25
		season := float64(seasonalAmplitude(lat) * math.Cos(phase))
		if lat < 0 {
			season = -season
		}
		// A weak stationary wave pattern in longitude (continents).
		wave := float64(3 * math.Cos(2*lon*math.Pi/180) * landFraction(lat))
		return meanTemp(lat) + season + wave + float64(rng.NormFloat64()*spec.NoiseK)
	})
	return arr, nil
}

// EncodeCSV serializes the dataset as (day, lat, lon, temp) rows — the
// form published to the datapackage store.
func EncodeCSV(a *ndarray.Array) ([]byte, error) {
	days, err := a.Coords("time")
	if err != nil {
		return nil, err
	}
	lats, err := a.Coords("lat")
	if err != nil {
		return nil, err
	}
	lons, err := a.Coords("lon")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString("day,lat,lon,temp\n")
	for ti, d := range days {
		for li, lat := range lats {
			for gi, lon := range lons {
				v, err := a.At(ti, li, gi)
				if err != nil {
					return nil, err
				}
				buf.WriteString(strconv.FormatFloat(d, 'g', -1, 64))
				buf.WriteByte(',')
				buf.WriteString(strconv.FormatFloat(lat, 'g', -1, 64))
				buf.WriteByte(',')
				buf.WriteString(strconv.FormatFloat(lon, 'g', -1, 64))
				buf.WriteByte(',')
				buf.WriteString(strconv.FormatFloat(v, 'f', 3, 64))
				buf.WriteByte('\n')
			}
		}
	}
	return buf.Bytes(), nil
}

// DecodeCSV rebuilds the array from its CSV serialization.
func DecodeCSV(data []byte) (*ndarray.Array, error) {
	tb, err := table.ParseCSV(string(data))
	if err != nil {
		return nil, fmt.Errorf("weather: %w", err)
	}
	for _, col := range []string{"day", "lat", "lon", "temp"} {
		if !tb.HasColumn(col) {
			return nil, fmt.Errorf("weather: CSV missing column %q", col)
		}
	}
	uniq := func(col string) ([]float64, error) {
		vs, err := tb.Unique(col)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(vs))
		for i, v := range vs {
			if !v.IsNum {
				return nil, fmt.Errorf("weather: non-numeric %s value %q", col, v.Text())
			}
			out[i] = v.Num
		}
		return out, nil
	}
	days, err := uniq("day")
	if err != nil {
		return nil, err
	}
	lats, err := uniq("lat")
	if err != nil {
		return nil, err
	}
	lons, err := uniq("lon")
	if err != nil {
		return nil, err
	}
	arr, err := ndarray.New([]string{"time", "lat", "lon"}, map[string][]float64{
		"time": days, "lat": lats, "lon": lons,
	})
	if err != nil {
		return nil, err
	}
	if tb.Len() != len(days)*len(lats)*len(lons) {
		return nil, fmt.Errorf("weather: CSV has %d rows, grid needs %d",
			tb.Len(), len(days)*len(lats)*len(lons))
	}
	index := func(coords []float64, v float64) int {
		for i, c := range coords {
			if c == v {
				return i
			}
		}
		return -1
	}
	for r := 0; r < tb.Len(); r++ {
		ti := index(days, tb.MustCell(r, "day").Num)
		li := index(lats, tb.MustCell(r, "lat").Num)
		gi := index(lons, tb.MustCell(r, "lon").Num)
		if ti < 0 || li < 0 || gi < 0 {
			return nil, fmt.Errorf("weather: row %d has off-grid coordinates", r)
		}
		if err := arr.Set(tb.MustCell(r, "temp").Num, ti, li, gi); err != nil {
			return nil, err
		}
	}
	return arr, nil
}

// Analysis holds the derived climatology products of the use case.
type Analysis struct {
	// ZonalAnnualMean is mean temperature by latitude (time and lon
	// averaged out).
	ZonalAnnualMean *ndarray.Array // dims: lat
	// SeasonalZonal is mean temperature by (month, lat).
	SeasonalZonal *ndarray.Array // dims: time(=month), lat
	// GlobalMeanK is the area-weighted global mean temperature.
	GlobalMeanK float64
	// AmplitudeNorth and AmplitudeSouth are the mean seasonal
	// peak-to-peak swings per hemisphere.
	AmplitudeNorth, AmplitudeSouth float64
}

// Analyze runs the BWW air-temperature analysis.
func Analyze(a *ndarray.Array) (*Analysis, error) {
	zonal, err := a.Reduce("lon", "mean") // (time, lat)
	if err != nil {
		return nil, err
	}
	annual, err := zonal.Reduce("time", "mean") // (lat)
	if err != nil {
		return nil, err
	}
	monthly, err := zonal.GroupBy("time", func(day float64) float64 {
		return math.Floor(day / 30.44)
	}, "mean")
	if err != nil {
		return nil, err
	}
	monthMax, err := monthly.Reduce("time", "max")
	if err != nil {
		return nil, err
	}
	monthMin, err := monthly.Reduce("time", "min")
	if err != nil {
		return nil, err
	}
	lats, err := a.Coords("lat")
	if err != nil {
		return nil, err
	}
	var north, south []float64
	maxV, minV := monthMax.Values(), monthMin.Values()
	for i, lat := range lats {
		amp := maxV[i] - minV[i]
		switch {
		case lat > 15:
			north = append(north, amp)
		case lat < -15:
			south = append(south, amp)
		}
	}
	an := &Analysis{
		ZonalAnnualMean: annual,
		SeasonalZonal:   monthly,
		AmplitudeNorth:  table.Mean(north),
		AmplitudeSouth:  table.Mean(south),
	}
	an.GlobalMeanK, err = areaWeightedMean(annual, lats)
	if err != nil {
		return nil, err
	}
	return an, nil
}

func areaWeightedMean(byLat *ndarray.Array, lats []float64) (float64, error) {
	vals := byLat.Values()
	if len(vals) != len(lats) {
		return 0, fmt.Errorf("weather: latitude profile length mismatch")
	}
	num, den := 0.0, 0.0
	for i, lat := range lats {
		w := math.Cos(lat * math.Pi / 180)
		if w < 0 {
			w = 0
		}
		num += float64(vals[i] * w)
		den += w
	}
	if den == 0 {
		return 0, fmt.Errorf("weather: degenerate latitude grid")
	}
	return num / den, nil
}

// Heatmap renders the seasonal zonal-mean climatology as the figure of
// the use case (latitude rows, month columns).
func (an *Analysis) Heatmap() (*plot.Heatmap, error) {
	// SeasonalZonal is (month, lat); transpose into lat rows.
	m, err := an.SeasonalZonal.Matrix()
	if err != nil {
		return nil, err
	}
	lats, err := an.SeasonalZonal.Coords("lat")
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(lats))
	labels := make([]string, len(lats))
	for li := range lats {
		row := make([]float64, len(m))
		for mi := range m {
			row[mi] = m[mi][li]
		}
		// render north at the top
		rows[len(lats)-1-li] = row
		labels[len(lats)-1-li] = fmt.Sprintf("%+.0f", lats[li])
	}
	return &plot.Heatmap{
		Title:     "NCEP/NCAR-style reanalysis: zonal mean air temperature (K)",
		XLabel:    "month",
		YLabel:    "latitude",
		Rows:      rows,
		RowLabels: labels,
	}, nil
}
