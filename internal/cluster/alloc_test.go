//go:build !race

package cluster

import "testing"

// A node holds its jitter generator by value, so provisioning a node
// allocates the Node and its id and nothing for the generator (math/rand
// allocated a Rand and a 4,872-byte source per node: 85 allocations for
// this cloverleaf-sized Provision). The race build allocates more, so
// it skips this file.
func TestProvisionAllocationBound(t *testing.T) {
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := New(7).Provision("probe-opteron", 15); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 55 {
		t.Fatalf("a 15-node Provision on a new cluster made %v allocations, want at most 55", allocs)
	}
}
