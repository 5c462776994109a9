// Package detrand is the models' random number generator. A Rand seeded
// with s yields, draw for draw, the values rand.New(rand.NewSource(s))
// yields in math/rand (v1), the generator every golden in this
// repository was recorded with; but its floating-point steps round
// explicitly and its exp and log are portable Go, so a seed gives the
// same bits on every architecture (math/rand's own NormFloat64 fuses
// multiply-adds on arm64, and the math.Exp and math.Log it calls run
// assembly on amd64).
//
// The generator is math/rand's additive lagged Fibonacci source
// (Mitchell and Reeds): 607 words, tap 273, seeded from a Lehmer LCG
// (x ← 48271·x mod 2³¹−1) XORed with a fixed table. Seeding here takes
// the LCG's steps three at a time by the jump multipliers A, A², A³,
// each a multiply and a Mersenne reduction where math/rand runs 1,841
// dependent Schrage steps, each a divide. The state lives inline in the
// Rand, so a Rand held by value costs its owner no allocation.
package detrand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// The seeding LCG: multiplier a and the Mersenne prime modulus m.
	lcgA = 48271
	lcgM = 1<<31 - 1

	// Jump multipliers: lcgA2 and lcgA3 take the LCG two and three
	// steps; lcgA20 takes the 20 steps math/rand discards before the
	// first word.
	lcgA2  = lcgA * lcgA % lcgM
	lcgA3  = lcgA2 * lcgA % lcgM
	lcgA5  = lcgA3 * lcgA2 % lcgM
	lcgA10 = lcgA5 * lcgA5 % lcgM
	lcgA20 = lcgA10 * lcgA10 % lcgM

	// zeroSeed replaces a seed ≡ 0 (mod m), as math/rand does.
	zeroSeed = 89482311
)

// cooked is the table math/rand XORs into the seeded words (rngCooked).
// It is recovered from math/rand itself rather than copied; see
// recoverCooked.
var cooked = recoverCooked()

// mulmod returns a·x mod m for a, x in [1, m): the product's high bits
// fold onto its low ones because 2³¹ ≡ 1 (mod m). The sum stays below
// 2m and, m being prime, is never m itself, so one subtraction reduces
// it.
func mulmod(a, x uint64) uint64 {
	p := a * x
	r := p&lcgM + p>>31
	if r >= lcgM {
		r -= lcgM
	}
	return r
}

// Rand is a generator. The zero Rand must be seeded before use.
type Rand struct {
	tap, feed int
	vec       [rngLen]int64
}

// New returns a Rand seeded with seed.
func New(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed resets r to the state rand.NewSource(seed) starts in.
func (r *Rand) Seed(seed int64) {
	r.seed(seed, &cooked)
}

// seed fills the state from the LCG stream of seed, XORed with table.
func (r *Rand) seed(seed int64, table *[rngLen]int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := mulmod(lcgA20, uint64(seed))
	for i := range r.vec {
		x1, x2, x3 := mulmod(lcgA, x), mulmod(lcgA2, x), mulmod(lcgA3, x)
		r.vec[i] = int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ table[i]
		x = x3
	}
}

// recoverCooked reads math/rand's table back out of its first rngLen
// outputs at one seed. Draw k adds the words at feed index 333−k and
// tap index 606−k (mod 607) and stores the sum at the feed index. Each
// feed index is read once, before its store; a tap index is the stored
// draw k−273 when k ≥ 273 and an original word before that. So the
// draws from 273 on give the words at feed indices 60…0 and 606…334,
// and the earlier draws, whose taps are those words, give 333…61.
// Unseeding the words from the raw LCG stream leaves the table.
func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out, orig [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		orig[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		orig[feed(k)] = out[k] - orig[rngLen-1-k]
	}
	var raw Rand
	raw.seed(seed, new([rngLen]int64))
	var table [rngLen]int64
	for i := range table {
		table[i] = orig[i] ^ raw.vec[i]
	}
	return table
}

// uint64 is math/rand's rngSource.Uint64.
func (r *Rand) uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *Rand) int63() int64 { return int64(r.uint64() & rngMask) }

func (r *Rand) int31() int32 { return int32(r.int63() >> 32) }

func (r *Rand) uint32() uint32 { return uint32(r.int63() >> 31) }

// Int63n returns, as an int64, a non-negative value in [0,n). It panics
// if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return v % n
}

// int31n is math/rand's Rand.Int31n.
func (r *Rand) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.int31()
	for v > max {
		v = r.int31()
	}
	return v % n
}

// Intn returns, as an int, a non-negative value in [0,n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns, as a float64, a value in [0.0,1.0).
func (r *Rand) Float64() float64 {
	// math/rand's Go 1 value stream: a quotient that rounds up to 1 is
	// drawn again.
	for {
		if f := float64(r.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
