package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popper/internal/repl"
	"popper/internal/store"
)

// End-to-end replication through the CLI: `popper run -replicas N`
// commits every manifest generation to a quorum of simulated nodes,
// later invocations auto-detect the provisioned group, and `popper
// fsck` audits replica agreement (healing laggards with --repair).

// replSweepRepo initializes a repository with the stm experiment and a
// sweep matrix, ready for `popper run`.
func replSweepRepo(t *testing.T, matrix string) string {
	t.Helper()
	dir := inTemp(t)
	if err := popper(t, dir, "init"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "add", "proteustm", "stm"); err != nil {
		t.Fatal(err)
	}
	sweep := filepath.Join(dir, "experiments/stm/sweep.yml")
	if err := os.WriteFile(sweep, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// treeImage reads a replica root's full repository image (advisory
// sidecars excluded) for byte-identity comparison.
func treeImage(t *testing.T, root string) map[string][]byte {
	t.Helper()
	img, err := store.Open(root).Image()
	if err != nil {
		t.Fatalf("%s: %v", root, err)
	}
	return img
}

func wantSameImage(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, want %d", label, len(got), len(want))
	}
	for path, content := range want {
		if !bytes.Equal(got[path], content) {
			t.Fatalf("%s: %s differs:\n got %q\nwant %q", label, path, got[path], content)
		}
	}
}

// TestCLIReplicatedSweepRun runs the same serial sweep through a
// 3-replica group and through a plain store: every replica tree must
// come out byte-identical to the unreplicated run, and fsck must
// report full agreement — auto-detecting the provisioned group without
// the -replicas flag.
func TestCLIReplicatedSweepRun(t *testing.T) {
	const matrix = "seed: [1, 2]\n"
	dir := replSweepRepo(t, matrix)
	ref := replSweepRepo(t, matrix)
	if err := popper(t, dir, "-replicas", "3", "-jobs", "1", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, ref, "-jobs", "1", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	// The group was provisioned under the dot-directory, invisible to
	// the primary's tracked tree.
	for id := 1; id < 3; id++ {
		man := filepath.Join(repl.ReplicaRoot(dir, id), ".popper", "manifest")
		if _, err := os.Stat(man); err != nil {
			t.Fatalf("replica %d has no manifest: %v", id, err)
		}
	}
	refImg := treeImage(t, ref)
	for id := 0; id < 3; id++ {
		got := treeImage(t, repl.ReplicaRoot(dir, id))
		wantSameImage(t, "replica "+string(rune('0'+id)), got, refImg)
	}
	// fsck auto-detects the group and audits agreement.
	if err := popper(t, dir, "fsck"); err != nil {
		t.Fatal(err)
	}
}

// TestCLIReplicatedClusterSweepMatchesFlat fans a replicated sweep
// across simulated cluster hosts: the merged results must match the
// flat replicated run byte-for-byte, and the group must still agree —
// the split matrix property, end to end through the CLI scheduler.
func TestCLIReplicatedClusterSweepMatchesFlat(t *testing.T) {
	dir := replSweepRepo(t, "seed: [1, 2, 3, 4]\n")
	if err := popper(t, dir, "-replicas", "3", "-jobs", "1", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	flat, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// No -replicas flag: the provisioned group is auto-detected.
	if err := popper(t, dir, "-hosts", "4", "-jobs", "2", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	clustered, err := os.ReadFile(filepath.Join(dir, "experiments/stm/results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat, clustered) {
		t.Fatalf("cluster-scheduled replicated results diverge from flat:\n%s\nvs\n%s", clustered, flat)
	}
	if err := popper(t, dir, "fsck"); err != nil {
		t.Fatal(err)
	}
}

// TestCLIReplicatedFsckHealsTamperedReplica damages one follower's
// tree out-of-band: fsck must flag the divergence, and --repair must
// heal it (snapshot install via anti-entropy) back to byte agreement.
func TestCLIReplicatedFsckHealsTamperedReplica(t *testing.T) {
	dir := replSweepRepo(t, "seed: [1, 2]\n")
	if err := popper(t, dir, "-replicas", "3", "-jobs", "1", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(repl.ReplicaRoot(dir, 2), "experiments/stm/results.csv")
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "fsck"); err == nil {
		t.Fatal("fsck must fail on a diverged replica")
	}
	if err := popper(t, dir, "fsck", "--repair"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("repair did not restore the replica's tree: %v", err)
	}
	if err := popper(t, dir, "fsck"); err != nil {
		t.Fatal(err)
	}
	// The healed replica is byte-identical to the primary.
	wantSameImage(t, "healed replica 2",
		treeImage(t, repl.ReplicaRoot(dir, 2)), treeImage(t, dir))
}

// TestCLIReplicatedFsckRepairHealsFromQuorum: the primary's vars.yml is
// corrupted and its object destroyed, but replicas 1 and 2 still hold
// the bytes. `popper fsck --repair` must heal it from that quorum —
// nothing quarantined, the generation unmoved, every replica's tracked
// tree back to its pre-damage bytes and all three committed states
// equal. The primary may now hold the object loose beside a rewritten
// extent: layout is each replica's own, so nothing is divergent and no
// follower is reseeded.
func TestCLIReplicatedFsckRepairHealsFromQuorum(t *testing.T) {
	dir := replSweepRepo(t, "seed: [1, 2]\n")
	if err := popper(t, dir, "-replicas", "3", "-jobs", "1", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	roots := []string{repl.ReplicaRoot(dir, 0), repl.ReplicaRoot(dir, 1), repl.ReplicaRoot(dir, 2)}
	before := make([]map[string][]byte, len(roots))
	for id, root := range roots {
		files, err := store.Open(root).Load()
		if err != nil {
			t.Fatal(err)
		}
		before[id] = files
	}
	gen0, err := store.Open(dir).Generation()
	if err != nil {
		t.Fatal(err)
	}
	varsPath := filepath.Join(dir, "experiments/stm/vars.yml")
	vars, err := os.ReadFile(varsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(varsPath, []byte(strings.Repeat("#", len(vars))), 0o644); err != nil {
		t.Fatal(err)
	}
	destroyObject(t, dir, vars)

	out, err := popperOut(t, dir, "fsck", "--repair")
	if err != nil {
		t.Fatalf("fsck --repair: %v\n%s", err, out)
	}
	for _, word := range []string{"divergent", "reseeded"} {
		if strings.Contains(out, word) {
			t.Errorf("the repair of one replica's file reported %q:\n%s", word, out)
		}
	}
	var states [][32]byte
	for id, root := range roots {
		if _, err := os.Stat(filepath.Join(root, ".popper", "quarantine")); !os.IsNotExist(err) {
			t.Errorf("replica %d: repair quarantined bytes a quorum holds (stat err %v)", id, err)
		}
		st := store.Open(root)
		if gen, err := st.Generation(); err != nil || gen != gen0 {
			t.Errorf("replica %d: generation %d after repair, want %d (err %v)", id, gen, gen0, err)
		}
		files, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		wantSameImage(t, "replica "+string(rune('0'+id))+" tracked tree", files, before[id])
		state, err := st.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, state)
	}
	if states[1] != states[0] || states[2] != states[0] {
		t.Fatalf("replica committed states differ after repair: %x %x %x", states[0][:6], states[1][:6], states[2][:6])
	}
	if out, err := popperOut(t, dir, "fsck"); err != nil {
		t.Fatalf("fsck after repair: %v\n%s", err, out)
	}
}

// TestCLIReplicatedFsckRepairInstallsQuorumManifest: a primary whose
// manifest is damaged still opens as a member of its group, and
// `popper fsck --repair` installs the replica quorum's manifest byte
// for byte instead of rebuilding a new history locally.
func TestCLIReplicatedFsckRepairInstallsQuorumManifest(t *testing.T) {
	dir := replSweepRepo(t, "seed: [1, 2]\n")
	if err := popper(t, dir, "-replicas", "3", "-jobs", "1", "run", "stm"); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, ".popper", "manifest")
	want, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	ref := treeImage(t, repl.ReplicaRoot(dir, 1))
	if err := os.WriteFile(manPath, []byte("damaged\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := popper(t, dir, "fsck"); err == nil || !strings.Contains(err.Error(), "--repair") {
		t.Fatalf("fsck over a damaged manifest must fail naming --repair, got %v", err)
	}
	if out, err := popperOut(t, dir, "fsck", "--repair"); err != nil {
		t.Fatalf("fsck --repair: %v\n%s", err, out)
	}
	got, err := os.ReadFile(manPath)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("manifest not restored from the quorum (err %v)", err)
	}
	wantSameImage(t, "repaired primary", treeImage(t, dir), ref)
	if out, err := popperOut(t, dir, "fsck"); err != nil {
		t.Fatalf("fsck after repair: %v\n%s", err, out)
	}
}
