//go:build !race

package detrand

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// wedgeInputs is the number of (strip, j) pairs that reach the
// ziggurat's wedge test: j an int32 with j&0x7F == i, i in 1..127, and
// |j| >= kn[i].
const wedgeInputs = 115923443

// TestExpMatchesMathExpOnTheWedge runs exp against math.Exp on every
// argument the wedge can pass it, -x²/2 for x = j·wn[i]. The wedge
// compares in float32, so the results must agree after that rounding;
// the float64 results need not. It takes a few seconds, so the race
// build, which would take minutes, skips it.
func TestExpMatchesMathExpOnTheWedge(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Exp is the reference on amd64 only, running on %s", runtime.GOARCH)
	}
	var inputs, wide, narrow atomic.Int64
	strips := make(chan int32)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range strips {
				n, f64, f32 := wedgeStrip(i)
				inputs.Add(n)
				wide.Add(f64)
				narrow.Add(f32)
			}
		}()
	}
	for i := int32(1); i < 128; i++ {
		strips <- i
	}
	close(strips)
	wg.Wait()
	t.Logf("%d wedge inputs: %d float64 results differ from math.Exp, %d after float32 rounding",
		inputs.Load(), wide.Load(), narrow.Load())
	if inputs.Load() != wedgeInputs {
		t.Errorf("enumerated %d wedge inputs, want %d", inputs.Load(), wedgeInputs)
	}
	if narrow.Load() != 0 {
		t.Errorf("%d wedge results differ from math.Exp after float32 rounding", narrow.Load())
	}
}

// wedgeStrip checks strip i's wedge inputs: the j ≡ i (mod 128) with
// j >= kn[i], then those with j <= -kn[i].
func wedgeStrip(i int32) (n, f64, f32 int64) {
	w, k := float64(wn[i]), int64(kn[i])
	check := func(j int64) {
		x := float64(j) * w
		a := -.5 * x * x
		got, want := exp(a), math.Exp(a)
		n++
		if got != want {
			f64++
			if float32(got) != float32(want) {
				f32++
			}
		}
	}
	for j := k + (int64(i)-k)&127; j <= math.MaxInt32; j += 128 {
		check(j)
	}
	for j := -k - (-k-int64(i))&127; j >= math.MinInt32; j -= 128 {
		check(j)
	}
	return n, f64, f32
}
