// Package ndarray implements labeled N-dimensional arrays in the style
// of the xarray library the paper's data-science use case analyzes
// weather data with: named dimensions, per-dimension coordinates,
// selection by coordinate value, and reductions/group-bys over named
// dimensions.
package ndarray

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Array is a dense row-major N-d array with named, coordinate-labeled
// dimensions.
type Array struct {
	dims   []string
	coords map[string][]float64
	shape  []int
	stride []int
	data   []float64
}

// New builds an array from dimension names and their coordinates; the
// data is zero-initialized.
func New(dims []string, coords map[string][]float64) (*Array, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("ndarray: need at least one dimension")
	}
	a := &Array{
		dims:   append([]string(nil), dims...),
		coords: make(map[string][]float64, len(dims)),
		shape:  make([]int, len(dims)),
		stride: make([]int, len(dims)),
	}
	seen := map[string]bool{}
	size := 1
	for i, d := range dims {
		if d == "" || seen[d] {
			return nil, fmt.Errorf("ndarray: invalid or duplicate dimension %q", d)
		}
		seen[d] = true
		c, ok := coords[d]
		if !ok || len(c) == 0 {
			return nil, fmt.Errorf("ndarray: dimension %q has no coordinates", d)
		}
		a.coords[d] = append([]float64(nil), c...)
		a.shape[i] = len(c)
		size *= len(c)
	}
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		a.stride[i] = stride
		stride *= a.shape[i]
	}
	a.data = make([]float64, size)
	return a, nil
}

// Shape returns the extent of each dimension.
func (a *Array) Shape() []int { return append([]int(nil), a.shape...) }

// Size returns the number of elements.
func (a *Array) Size() int { return len(a.data) }

// Coords returns the coordinates of a dimension.
func (a *Array) Coords(dim string) ([]float64, error) {
	c, ok := a.coords[dim]
	if !ok {
		return nil, fmt.Errorf("ndarray: no dimension %q", dim)
	}
	return append([]float64(nil), c...), nil
}

func (a *Array) dimIndex(dim string) (int, error) {
	for i, d := range a.dims {
		if d == dim {
			return i, nil
		}
	}
	return -1, fmt.Errorf("ndarray: no dimension %q (have %s)", dim, strings.Join(a.dims, ","))
}

func (a *Array) offset(idx []int) (int, error) {
	if len(idx) != len(a.dims) {
		return 0, fmt.Errorf("ndarray: got %d indices for %d dimensions", len(idx), len(a.dims))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= a.shape[i] {
			return 0, fmt.Errorf("ndarray: index %d out of range [0,%d) on %s", x, a.shape[i], a.dims[i])
		}
		off += x * a.stride[i]
	}
	return off, nil
}

// At returns the element at the given indices (one per dimension).
func (a *Array) At(idx ...int) (float64, error) {
	off, err := a.offset(idx)
	if err != nil {
		return 0, err
	}
	return a.data[off], nil
}

// Set stores v at the given indices.
func (a *Array) Set(v float64, idx ...int) error {
	off, err := a.offset(idx)
	if err != nil {
		return err
	}
	a.data[off] = v
	return nil
}

// Fill sets every element from a generator called with per-dim indices.
func (a *Array) Fill(gen func(idx []int) float64) {
	idx := make([]int, len(a.dims))
	for off := range a.data {
		rem := off
		for i := range a.dims {
			idx[i] = rem / a.stride[i]
			rem %= a.stride[i]
		}
		a.data[off] = gen(idx)
	}
}

// Apply replaces every element x with f(x).
func (a *Array) Apply(f func(float64) float64) {
	for i, v := range a.data {
		a.data[i] = f(v)
	}
}

// Clone deep-copies the array.
func (a *Array) Clone() *Array {
	cp, _ := New(a.dims, a.coords)
	copy(cp.data, a.data)
	return cp
}

func (a *Array) isel(di, pos int) (*Array, error) {
	if len(a.dims) == 1 {
		// selecting from 1-d collapses to a scalar wrapped in a 1-cell array
		out, _ := New([]string{"scalar"}, map[string][]float64{"scalar": {0}})
		out.data[0] = a.data[pos*a.stride[di]]
		return out, nil
	}
	newDims := make([]string, 0, len(a.dims)-1)
	newCoords := make(map[string][]float64)
	for i, d := range a.dims {
		if i == di {
			continue
		}
		newDims = append(newDims, d)
		newCoords[d] = a.coords[d]
	}
	out, err := New(newDims, newCoords)
	if err != nil {
		return nil, err
	}
	a.iterate(di, pos, func(srcOff, dstOff int) {
		out.data[dstOff] = a.data[srcOff]
	})
	return out, nil
}

// iterate walks all elements with dimension di fixed at pos, calling fn
// with the source offset and the dense destination offset.
func (a *Array) iterate(di, pos int, fn func(srcOff, dstOff int)) {
	idx := make([]int, len(a.dims))
	idx[di] = pos
	dst := 0
	var rec func(d int)
	rec = func(d int) {
		if d == len(a.dims) {
			off := 0
			for i, x := range idx {
				off += x * a.stride[i]
			}
			fn(off, dst)
			dst++
			return
		}
		if d == di {
			rec(d + 1)
			return
		}
		for x := 0; x < a.shape[d]; x++ {
			idx[d] = x
			rec(d + 1)
		}
	}
	rec(0)
}

// Reduce collapses a dimension with the named operation
// (mean, sum, min, max, std).
func (a *Array) Reduce(dim, op string) (*Array, error) {
	di, err := a.dimIndex(dim)
	if err != nil {
		return nil, err
	}
	n := a.shape[di]
	switch op {
	case "mean", "sum", "min", "max", "std":
	default:
		return nil, fmt.Errorf("ndarray: unknown reduction %q", op)
	}
	// Collect per-destination samples, one slice per position along dim.
	var firstSlice *Array
	samples := make([][]float64, 0, n)
	for pos := 0; pos < n; pos++ {
		sl, err := a.isel(di, pos)
		if err != nil {
			return nil, err
		}
		if firstSlice == nil {
			firstSlice = sl
		}
		samples = append(samples, sl.data)
	}
	acc := firstSlice.Clone()
	for i := range acc.data {
		vals := make([]float64, n)
		for p := 0; p < n; p++ {
			vals[p] = samples[p][i]
		}
		acc.data[i] = reduce(op, vals)
	}
	return acc, nil
}

func reduce(op string, vals []float64) float64 {
	switch op {
	case "sum":
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	case "mean":
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case "min":
		m := vals[0]
		for _, v := range vals[1:] {
			m = math.Min(m, v)
		}
		return m
	case "max":
		m := vals[0]
		for _, v := range vals[1:] {
			m = math.Max(m, v)
		}
		return m
	case "std":
		mean := reduce("mean", vals)
		ss := 0.0
		for _, v := range vals {
			ss += float64((v - mean) * (v - mean))
		}
		if len(vals) < 2 {
			return 0
		}
		return math.Sqrt(ss / float64(len(vals)-1))
	}
	return math.NaN()
}

// GroupBy buckets a dimension's coordinates with `key`, reduces within
// each bucket using op, and returns a new array whose dim coordinates
// are the distinct key values in ascending order. This is xarray's
// groupby("time.season").mean() pattern.
func (a *Array) GroupBy(dim string, key func(coord float64) float64, op string) (*Array, error) {
	di, err := a.dimIndex(dim)
	if err != nil {
		return nil, err
	}
	groups := make(map[float64][]int)
	for pos, c := range a.coords[dim] {
		k := key(c)
		groups[k] = append(groups[k], pos)
	}
	keys := make([]float64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Float64s(keys)

	newCoords := make(map[string][]float64)
	for d, c := range a.coords {
		newCoords[d] = c
	}
	newCoords[dim] = keys
	out, err := New(a.dims, newCoords)
	if err != nil {
		return nil, err
	}
	for gi, k := range keys {
		positions := groups[k]
		// For each element with dim=gi in the output, reduce over the
		// member positions in the input.
		out.iterate(di, gi, func(dstOff, _ int) {
			// dstOff indexes `out`; compute the matching multi-index.
			idx := out.indexOf(dstOff)
			vals := make([]float64, len(positions))
			srcIdx := append([]int(nil), idx...)
			for vi, p := range positions {
				srcIdx[di] = p
				off, _ := a.offset(srcIdx)
				vals[vi] = a.data[off]
			}
			out.data[dstOff] = reduce(op, vals)
		})
	}
	return out, nil
}

func (a *Array) indexOf(off int) []int {
	idx := make([]int, len(a.dims))
	rem := off
	for i := range a.dims {
		idx[i] = rem / a.stride[i]
		rem %= a.stride[i]
	}
	return idx
}

// Values returns a copy of the flat data (row-major).
func (a *Array) Values() []float64 { return append([]float64(nil), a.data...) }

// Matrix renders a 2-d array as rows (first dim) of columns (second
// dim) — the input shape plot.Heatmap expects.
func (a *Array) Matrix() ([][]float64, error) {
	if len(a.dims) != 2 {
		return nil, fmt.Errorf("ndarray: Matrix needs 2 dimensions, have %d", len(a.dims))
	}
	out := make([][]float64, a.shape[0])
	for i := range out {
		row := make([]float64, a.shape[1])
		for j := range row {
			row[j] = a.data[i*a.stride[0]+j*a.stride[1]]
		}
		out[i] = row
	}
	return out, nil
}

// String summarizes the array like xarray's repr.
func (a *Array) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<ndarray (")
	for i, d := range a.dims {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %d", d, a.shape[i])
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range a.data {
		mn, mx = math.Min(mn, v), math.Max(mx, v)
	}
	fmt.Fprintf(&sb, ")> min=%.4g max=%.4g", mn, mx)
	return sb.String()
}
