package detrand

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestLogMatchesMathLog samples log against math.Log: half the inputs
// are what Float64 returns, spread over every binade of [2⁻⁶³, 1) (the
// ziggurat's tail takes the log of a Float64), half are positive normal
// float64s of any exponent.
func TestLogMatchesMathLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Log is the reference on amd64 only, running on %s", runtime.GOARCH)
	}
	const samples = 10_000_000
	pick := rand.New(rand.NewSource(20261018))
	differ := 0
	for s := 0; s < samples; s++ {
		var u float64
		if s%2 == 0 {
			u = float64(pick.Int63()>>pick.Intn(63)) / (1 << 63)
		} else {
			exp := 1 + pick.Int63n(2046)
			u = math.Float64frombits(uint64(exp)<<52 | pick.Uint64()&(1<<52-1))
		}
		if got, want := log(u), math.Log(u); math.Float64bits(got) != math.Float64bits(want) {
			if differ++; differ <= 5 {
				t.Errorf("log(%v) = %v, math.Log %v", u, got, want)
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d log results differ from math.Log", differ, samples)
	}
}

func TestExpLogSpecialCases(t *testing.T) {
	inf := math.Inf(1)
	for _, x := range []float64{math.NaN(), inf, -inf, 710, -746, 1e-9, -1e-9, 0} {
		if got, want := exp(x), math.Exp(x); !(got == want || math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("exp(%v) = %v, math.Exp %v", x, got, want)
		}
	}
	for _, x := range []float64{math.NaN(), inf, -1, 0, 1, math.MaxFloat64} {
		if got, want := log(x), math.Log(x); !(got == want || math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("log(%v) = %v, math.Log %v", x, got, want)
		}
	}
}
