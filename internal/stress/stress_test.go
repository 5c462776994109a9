package stress

import (
	"math"
	"testing"
	"testing/quick"

	"popper/internal/cluster"
)

func TestBatteryWellFormed(t *testing.T) {
	all := All()
	if len(all) < 20 {
		t.Fatalf("battery has %d stressors, want >= 20", len(all))
	}
	seen := map[string]bool{}
	classes := map[Class]int{}
	for _, s := range all {
		if s.Name == "" || s.Class == "" || s.Native == nil {
			t.Errorf("stressor %+v incomplete", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate stressor %q", s.Name)
		}
		seen[s.Name] = true
		classes[s.Class]++
		z := cluster.Work{}
		if s.Unit == z {
			t.Errorf("stressor %q has empty work unit", s.Name)
		}
	}
	for _, c := range []Class{ClassCPU, ClassVector, ClassMemory, ClassRandMem, ClassBranch, ClassSyscall, ClassMixed} {
		if classes[c] == 0 {
			t.Errorf("class %s has no stressors", c)
		}
	}
	// sorted by name
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatal("All() not sorted")
		}
	}
}

func TestNativeKernelsRun(t *testing.T) {
	for _, s := range All() {
		got := s.Native(2000)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("stressor %s native kernel returned %v", s.Name, got)
		}
		// determinism of kernels
		if again := s.Native(2000); again != got {
			t.Errorf("stressor %s native kernel not deterministic: %v vs %v", s.Name, got, again)
		}
	}
}

func TestThroughputOrdering(t *testing.T) {
	old := cluster.MustProfile("xeon-2005")
	new_ := cluster.MustProfile("cloudlab-c220g1")
	for _, s := range All() {
		to, tn := s.Throughput(old), s.Throughput(new_)
		if to <= 0 || tn <= 0 {
			t.Errorf("%s: non-positive throughput", s.Name)
		}
		if tn <= to {
			t.Errorf("%s: 2015 machine should beat 2005 machine (%.3g vs %.3g)", s.Name, tn, to)
		}
	}
}

func TestSpeedupShape(t *testing.T) {
	// The calibrated battery must reproduce the paper's histogram shape:
	// scalar-CPU stressors cluster in (2.2, 2.3], the memory group sits
	// near 3.3, latency-bound near 1.3, and vector stressors form the tail.
	old := cluster.MustProfile("xeon-2005")
	new_ := cluster.MustProfile("cloudlab-c220g1")

	inMode := 0
	for _, s := range All() {
		if s.Class != ClassCPU {
			continue
		}
		sp := s.Speedup(old, new_)
		if sp > 2.2 && sp <= 2.3 {
			inMode++
		}
	}
	if inMode != 7 {
		t.Errorf("CPU stressors in (2.2,2.3] = %d, want 7 (the paper's mode)", inMode)
	}
	for _, s := range All() {
		if s.Class != ClassMemory {
			continue
		}
		sp := s.Speedup(old, new_)
		if sp < 2.8 || sp > 3.6 {
			t.Errorf("%s memory speedup = %.2f, want ~3.3", s.Name, sp)
		}
	}
	for _, s := range All() {
		if s.Class != ClassRandMem {
			continue
		}
		sp := s.Speedup(old, new_)
		if sp < 1.0 || sp > 2.0 {
			t.Errorf("%s randmem speedup = %.2f, want ~1.3-1.5", s.Name, sp)
		}
	}
	for _, s := range All() {
		if s.Class != ClassVector {
			continue
		}
		sp := s.Speedup(old, new_)
		if sp < 4.0 {
			t.Errorf("%s vector speedup = %.2f, want tail > 4", s.Name, sp)
		}
	}
}

func TestSpeedupIdentity(t *testing.T) {
	p := cluster.MustProfile("ec2-m4")
	for _, s := range All() {
		if sp := s.Speedup(p, p); math.Abs(sp-1) > 1e-12 {
			t.Errorf("%s: self speedup = %v", s.Name, sp)
		}
	}
}

func TestRunBattery(t *testing.T) {
	c := cluster.New(1)
	nodes, _ := c.Provision("cloudlab-c220g1", 1)
	samples := RunBattery(nodes[0], 100)
	if len(samples) != len(All()) {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, s := range samples {
		if s.Throughput <= 0 || s.Elapsed <= 0 {
			t.Errorf("sample %s: %+v", s.Stressor, s)
		}
	}
	if nodes[0].Now() <= 0 {
		t.Fatal("battery should advance node clock")
	}
	// ops floor of 1
	if got := RunBattery(nodes[0], 0); len(got) != len(All()) {
		t.Fatal("ops=0 should clamp to 1")
	}
}

func TestBatteryReflectsBackgroundLoad(t *testing.T) {
	c := cluster.New(2)
	nodes, _ := c.Provision("probe-opteron", 2)
	quiet := RunBattery(nodes[0], 100)
	nodes[1].SetBackgroundLoad(0.6)
	noisy := RunBattery(nodes[1], 100)
	slower := 0
	for i := range quiet {
		if noisy[i].Throughput < quiet[i].Throughput {
			slower++
		}
	}
	if slower < len(quiet)*9/10 {
		t.Fatalf("only %d/%d stressors slower under load", slower, len(quiet))
	}
}

// Property: speedup is multiplicative-transitive within the model:
// speedup(A->C) == speedup(A->B) * speedup(B->C).
func TestQuickSpeedupTransitive(t *testing.T) {
	profiles := []string{"xeon-2005", "cloudlab-c220g1", "cloudlab-c8220", "ec2-m4", "probe-opteron"}
	f := func(i, j, k uint8, si uint8) bool {
		a := cluster.MustProfile(profiles[int(i)%len(profiles)])
		b := cluster.MustProfile(profiles[int(j)%len(profiles)])
		c := cluster.MustProfile(profiles[int(k)%len(profiles)])
		all := All()
		s := all[int(si)%len(all)]
		ac := s.Speedup(a, c)
		ab := s.Speedup(a, b)
		bc := s.Speedup(b, c)
		return math.Abs(ac-ab*bc) < 1e-9*ac
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
