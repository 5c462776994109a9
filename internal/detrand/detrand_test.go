package detrand

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// testSeeds are 2,000 random seeds plus the edges of math/rand's seed
// reduction: zero and the multiples of 2³¹−1 (which it replaces with
// 89482311), the seed it replaces them with, ±1, and the int64 extremes.
func testSeeds() []int64 {
	seeds := []int64{0, 1, -1, lcgM, -lcgM, 2 * lcgM, lcgM - 1, lcgM + 1,
		zeroSeed, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(20261018))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	return seeds
}

const drawsPerSeed = 3000

// sameStream checks, for every test seed, drawsPerSeed draws of one
// method on a Rand against the same method on math/rand's generator.
func sameStream(t *testing.T, name string, draw func(*Rand) uint64, want func(*rand.Rand) uint64) {
	t.Helper()
	var r Rand
	for _, seed := range testSeeds() {
		r.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < drawsPerSeed; k++ {
			if got, w := draw(&r), want(ref); got != w {
				t.Fatalf("seed %d: %s draw %d = %#x, math/rand %#x", seed, name, k, got, w)
			}
		}
	}
}

func TestUint64MatchesMathRand(t *testing.T) {
	sameStream(t, "Uint64",
		func(r *Rand) uint64 { return r.uint64() },
		func(r *rand.Rand) uint64 { return r.Uint64() })
}

func TestFloat64MatchesMathRand(t *testing.T) {
	sameStream(t, "Float64",
		func(r *Rand) uint64 { return math.Float64bits(r.Float64()) },
		func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) })
}

func TestNormFloat64MatchesMathRand(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// math/rand's ziggurat fuses multiply-adds on other
		// architectures, so its stream is not the reference there.
		t.Skipf("math/rand's NormFloat64 is the reference on amd64 only, running on %s", runtime.GOARCH)
	}
	sameStream(t, "NormFloat64",
		func(r *Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
		func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) })
}

// boundSizes are Intn and Int63n bounds: small, powers of two (the
// masking path), just below and above 2³¹−1 (where Intn switches from
// 31 to 63 bits) and near the top of int64.
var boundSizes = []int64{1, 2, 3, 7, 10, 64, 100, 1000, 1 << 20, 12345678,
	1<<30 + 1, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 3<<40 + 5,
	1 << 62, 1<<62 + 1, math.MaxInt64}

func TestIntnMatchesMathRand(t *testing.T) {
	k := 0
	sameStream(t, "Intn",
		func(r *Rand) uint64 { return uint64(r.Intn(int(boundSizes[k%len(boundSizes)]))) },
		func(r *rand.Rand) uint64 { n := boundSizes[k%len(boundSizes)]; k++; return uint64(r.Intn(int(n))) })
}

func TestInt63nMatchesMathRand(t *testing.T) {
	k := 0
	sameStream(t, "Int63n",
		func(r *Rand) uint64 { return uint64(r.Int63n(boundSizes[k%len(boundSizes)])) },
		func(r *rand.Rand) uint64 { n := boundSizes[k%len(boundSizes)]; k++; return uint64(r.Int63n(n)) })
}

func TestBoundsPanicLikeMathRand(t *testing.T) {
	r := New(1)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Intn(0)", func() { r.Intn(0) }},
		{"Intn(-1)", func() { r.Intn(-1) }},
		{"Int63n(0)", func() { r.Int63n(0) }},
		{"Int63n(-1)", func() { r.Int63n(-1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

var sinkFloat float64

func BenchmarkSeed(b *testing.B) {
	var r Rand
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.New(rand.NewSource(int64(i)))
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		sinkFloat = r.NormFloat64()
	}
}

func BenchmarkMathRandNormFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		sinkFloat = r.NormFloat64()
	}
}
