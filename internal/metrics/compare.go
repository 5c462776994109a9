package metrics

import (
	"fmt"
	"sort"

	"popper/internal/detrand"
	"popper/internal/table"
)

// This file implements the *statistical* reproducibility method the
// paper contrasts with controlled experiments: "after taking a
// significant number of samples, the claims of the behavior of each
// system are formed in statistical terms, e.g. with 95% confidence one
// system is 10x better than the other."

// Comparison is a statistical claim about two systems' samples.
type Comparison struct {
	// Factor is the point estimate of how many times better (lower) B's
	// central value is than A's: mean(A)/mean(B) for a lower-is-better
	// metric such as runtime.
	Factor float64
	// Lo and Hi bound the factor at the requested confidence.
	Lo, Hi float64
	// Confidence in (0,1), e.g. 0.95.
	Confidence float64
}

// Better reports whether B beats A at the stated confidence (the whole
// interval lies above 1).
func (c Comparison) Better() bool { return c.Lo > 1 }

// String renders the claim the way the paper phrases it.
func (c Comparison) String() string {
	return fmt.Sprintf("with %.0f%% confidence, B is %.2fx better than A (CI [%.2f, %.2f])",
		c.Confidence*100, c.Factor, c.Lo, c.Hi)
}

// BootstrapCI estimates a confidence interval for a statistic of the
// samples by seeded bootstrap resampling (deterministic for a given
// seed, as everything in this toolchain must be).
func BootstrapCI(samples []float64, stat func([]float64) float64, iters int, conf float64, seed int64) (lo, hi float64, err error) {
	if len(samples) < 2 {
		return 0, 0, fmt.Errorf("metrics: bootstrap needs at least 2 samples, have %d", len(samples))
	}
	if iters < 100 {
		return 0, 0, fmt.Errorf("metrics: bootstrap needs at least 100 iterations")
	}
	if conf <= 0 || conf >= 1 {
		return 0, 0, fmt.Errorf("metrics: confidence %g out of (0,1)", conf)
	}
	rng := detrand.New(seed)
	stats := make([]float64, iters)
	resample := make([]float64, len(samples))
	for i := 0; i < iters; i++ {
		for j := range resample {
			resample[j] = samples[rng.Intn(len(samples))]
		}
		stats[i] = stat(resample)
	}
	sort.Float64s(stats)
	alpha := float64((1 - conf) / 2)
	loIdx := int(alpha * float64(iters))
	hiIdx := int((1 - alpha) * float64(iters))
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	return stats[loIdx], stats[hiIdx], nil
}

// CompareSystems forms the statistical claim "B is X times better than
// A" for a lower-is-better metric (runtime, latency): the factor is
// mean(A)/mean(B), bounded by a bootstrap over both sample sets.
func CompareSystems(a, b []float64, conf float64, seed int64) (Comparison, error) {
	if len(a) < 2 || len(b) < 2 {
		return Comparison{}, fmt.Errorf("metrics: need at least 2 samples per system (have %d, %d)", len(a), len(b))
	}
	mb := table.Mean(b)
	if mb == 0 || table.Mean(a) == 0 {
		return Comparison{}, fmt.Errorf("metrics: zero-mean samples")
	}
	// Bootstrap the ratio jointly: resample both sides each iteration.
	if conf <= 0 || conf >= 1 {
		return Comparison{}, fmt.Errorf("metrics: confidence %g out of (0,1)", conf)
	}
	const iters = 2000
	rng := detrand.New(seed)
	ratios := make([]float64, iters)
	ra := make([]float64, len(a))
	rb := make([]float64, len(b))
	for i := 0; i < iters; i++ {
		for j := range ra {
			ra[j] = a[rng.Intn(len(a))]
		}
		for j := range rb {
			rb[j] = b[rng.Intn(len(b))]
		}
		denom := table.Mean(rb)
		if denom == 0 {
			denom = 1e-300
		}
		ratios[i] = table.Mean(ra) / denom
	}
	sort.Float64s(ratios)
	alpha := float64((1 - conf) / 2)
	c := Comparison{
		Factor:     table.Mean(a) / mb,
		Lo:         ratios[int(alpha*iters)],
		Hi:         ratios[min(iters-1, int((1-alpha)*iters))],
		Confidence: conf,
	}
	return c, nil
}
