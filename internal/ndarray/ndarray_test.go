package ndarray

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample(t *testing.T) *Array {
	t.Helper()
	a, err := New([]string{"time", "lat", "lon"}, map[string][]float64{
		"time": {0, 1, 2, 3},
		"lat":  {-30, 0, 30},
		"lon":  {0, 90, 180, 270},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(idx []int) float64 {
		return float64(idx[0]*100 + idx[1]*10 + idx[2])
	})
	return a
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		dims   []string
		coords map[string][]float64
	}{
		{nil, nil},
		{[]string{"x"}, map[string][]float64{}},
		{[]string{"x"}, map[string][]float64{"x": {}}},
		{[]string{"x", "x"}, map[string][]float64{"x": {1}}},
		{[]string{""}, map[string][]float64{"": {1}}},
	}
	for i, c := range cases {
		if _, err := New(c.dims, c.coords); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestShapeAndSize(t *testing.T) {
	a := sample(t)
	if got := a.Shape(); got[0] != 4 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("shape = %v", got)
	}
	if a.Size() != 48 {
		t.Fatalf("size = %d", a.Size())
	}
	c, err := a.Coords("lat")
	if err != nil || len(c) != 3 || c[2] != 30 {
		t.Fatalf("coords = %v, %v", c, err)
	}
	if _, err := a.Coords("ghost"); err == nil {
		t.Fatal("unknown dim must fail")
	}
}

func TestAtSet(t *testing.T) {
	a := sample(t)
	v, err := a.At(2, 1, 3)
	if err != nil || v != 213 {
		t.Fatalf("At = %v, %v", v, err)
	}
	if err := a.Set(-1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _ = a.At(0, 0, 0)
	if v != -1 {
		t.Fatalf("Set failed: %v", v)
	}
	if _, err := a.At(0, 0); err == nil {
		t.Fatal("wrong arity must fail")
	}
	if _, err := a.At(0, 5, 0); err == nil {
		t.Fatal("out of range must fail")
	}
	if err := a.Set(0, 9, 0, 0); err == nil {
		t.Fatal("out of range set must fail")
	}
}

func TestSelTo1D(t *testing.T) {
	a, _ := New([]string{"x"}, map[string][]float64{"x": {10, 20}})
	a.Set(7, 1)
	s, err := a.isel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Values(); len(v) != 1 || v[0] != 7 {
		t.Fatalf("scalar = %v", v)
	}
}

func TestReduceMean(t *testing.T) {
	a := sample(t)
	m, err := a.Reduce("time", "mean")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Shape(); got[0] != 3 || got[1] != 4 {
		t.Fatalf("shape = %v", got)
	}
	// values 0..3 at (t,1,2): 12, 112, 212, 312 -> mean 162
	v, _ := m.At(1, 2)
	if v != 162 {
		t.Fatalf("mean = %v", v)
	}
}

func TestReduceOps(t *testing.T) {
	a, _ := New([]string{"x"}, map[string][]float64{"x": {1, 2, 3, 4}})
	for i, v := range []float64{2, 4, 4, 6} {
		a.Set(v, i)
	}
	check := func(op string, want float64) {
		r, err := a.Reduce("x", op)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if got := r.Values()[0]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", op, got, want)
		}
	}
	check("sum", 16)
	check("mean", 4)
	check("min", 2)
	check("max", 6)
	check("std", 1.632993161855452)
	if _, err := a.Reduce("x", "mode"); err == nil {
		t.Fatal("unknown op must fail")
	}
	if _, err := a.Reduce("ghost", "mean"); err == nil {
		t.Fatal("unknown dim must fail")
	}
}

func TestGroupBySeasons(t *testing.T) {
	// 12 "months", value = month number; group into 4 seasons of 3.
	a, _ := New([]string{"month", "lat"}, map[string][]float64{
		"month": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		"lat":   {-10, 10},
	})
	a.Fill(func(idx []int) float64 { return float64(idx[0]) })
	seasons, err := a.GroupBy("month", func(m float64) float64 {
		return math.Floor(m / 3)
	}, "mean")
	if err != nil {
		t.Fatal(err)
	}
	if got := seasons.Shape(); got[0] != 4 || got[1] != 2 {
		t.Fatalf("shape = %v", got)
	}
	coords, _ := seasons.Coords("month")
	if coords[0] != 0 || coords[3] != 3 {
		t.Fatalf("season coords = %v", coords)
	}
	v, _ := seasons.At(1, 0) // months 3,4,5 -> mean 4
	if v != 4 {
		t.Fatalf("season mean = %v", v)
	}
	if _, err := a.GroupBy("ghost", func(f float64) float64 { return f }, "mean"); err == nil {
		t.Fatal("unknown dim must fail")
	}
}

func TestApplyAndClone(t *testing.T) {
	a := sample(t)
	cp := a.Clone()
	a.Apply(func(x float64) float64 { return x * 2 })
	va, _ := a.At(1, 1, 1)
	vc, _ := cp.At(1, 1, 1)
	if va != 222 || vc != 111 {
		t.Fatalf("apply/clone: %v, %v", va, vc)
	}
}

func TestMatrix(t *testing.T) {
	a, _ := New([]string{"r", "c"}, map[string][]float64{"r": {0, 1}, "c": {0, 1, 2}})
	a.Fill(func(idx []int) float64 { return float64(idx[0]*3 + idx[1]) })
	m, err := a.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[1][2] != 5 {
		t.Fatalf("matrix = %v", m)
	}
	b := sample(t)
	if _, err := b.Matrix(); err == nil {
		t.Fatal("3-d matrix must fail")
	}
}

func TestString(t *testing.T) {
	s := sample(t).String()
	for _, want := range []string{"time: 4", "lat: 3", "min=", "max="} {
		if !strings.Contains(s, want) {
			t.Fatalf("repr = %q", s)
		}
	}
}

// Property: Reduce(sum) over any dim conserves the grand total.
func TestQuickReduceConservesSum(t *testing.T) {
	f := func(vals []float64, dimPick uint8) bool {
		a, _ := New([]string{"x", "y"}, map[string][]float64{
			"x": {0, 1, 2}, "y": {0, 1},
		})
		a.Fill(func(idx []int) float64 {
			i := idx[0]*2 + idx[1]
			if i < len(vals) && !math.IsNaN(vals[i]) && math.Abs(vals[i]) < 1e100 {
				return vals[i]
			}
			return float64(i)
		})
		total := 0.0
		for _, v := range a.Values() {
			total += v
		}
		dim := []string{"x", "y"}[int(dimPick)%2]
		r, err := a.Reduce(dim, "sum")
		if err != nil {
			return false
		}
		rt := 0.0
		for _, v := range r.Values() {
			rt += v
		}
		return math.Abs(rt-total) < 1e-6*(1+math.Abs(total))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: selecting a time slice matches direct indexing.
func TestQuickSelConsistent(t *testing.T) {
	a := sampleQuick()
	f := func(pos uint8) bool {
		p := int(pos) % 4
		s, err := a.isel(0, p)
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				want, _ := a.At(p, i, j)
				got, _ := s.At(i, j)
				if want != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func sampleQuick() *Array {
	a, _ := New([]string{"time", "lat", "lon"}, map[string][]float64{
		"time": {0, 1, 2, 3},
		"lat":  {-30, 0, 30},
		"lon":  {0, 90, 180, 270},
	})
	a.Fill(func(idx []int) float64 {
		return float64(idx[0]*100+idx[1]*10+idx[2]) * 1.5
	})
	return a
}
