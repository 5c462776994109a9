package cas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"popper/internal/cluster"
	"popper/internal/gasnet"
)

// testFederation builds a tier federated over `hosts` simulated
// c220g1 nodes with 4 MiB segments.
func testFederation(t *testing.T, hosts int) (*Federation, *Tier, []*cluster.Node) {
	t.Helper()
	c := cluster.New(21)
	nodes, err := c.Provision("cloudlab-c220g1", hosts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(4 << 20); err != nil {
		t.Fatal(err)
	}
	profiles := make([]*cluster.MachineProfile, hosts)
	for i := range profiles {
		profiles[i] = nodes[i].Profile()
	}
	tier := NewTier(Options{})
	fed, err := NewFederation(tier, w, profiles)
	if err != nil {
		t.Fatal(err)
	}
	return fed, tier, nodes
}

func entryKey(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

func TestFederationPublishFetchFidelity(t *testing.T) {
	fed, tier, nodes := testFederation(t, 3)
	content := bytes.Repeat([]byte("stage output, chunked. "), 8000) // ~184 KB, 3 chunks
	refs := tier.PutChunked(content)
	key := entryKey("stage-a")
	if err := fed.Publish(0, key, refs); err != nil {
		t.Fatal(err)
	}
	if !fed.Present(0, key) || fed.Present(2, key) {
		t.Fatal("publish must register exactly host 0")
	}

	// Remote fetch from host 2 moves the bytes and charges its clock.
	before := nodes[2].Now()
	got, res, err := fed.FetchBlob(2, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != FetchRemote || res.From != 0 {
		t.Fatalf("want remote fetch from host 0, got %v from %d", res.Kind, res.From)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched bytes differ from published content")
	}
	if res.Cost <= 0 || nodes[2].Now() <= before {
		t.Fatalf("remote fetch must cost virtual time: cost=%g clock %g→%g",
			res.Cost, before, nodes[2].Now())
	}
	if !fed.Present(2, key) {
		t.Fatal("fetcher must become a holder")
	}

	// Second fetch from host 2 is now local and cheaper.
	res2, err := fed.Fetch(2, key)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Kind != FetchLocal || res2.Cost >= res.Cost {
		t.Fatalf("repeat fetch should be a cheaper local hit: %v cost %g (remote was %g)",
			res2.Kind, res2.Cost, res.Cost)
	}

	st := fed.Stats()
	if st.RemoteFetches != 1 || st.LocalHits != 1 || st.RemoteBytes != int64(len(content)) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFederationMiss(t *testing.T) {
	fed, _, _ := testFederation(t, 2)
	res, err := fed.Fetch(1, entryKey("never published"))
	if err != nil || res.Kind != FetchMiss {
		t.Fatalf("want clean miss, got %v err %v", res.Kind, err)
	}
	if st := fed.Stats(); st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFederationPicksCheapestPeer pins the alpha-beta peer selection: a
// fast-NIC holder must win over a slow-NIC holder, and ties break
// toward the lowest host index (deterministic choice).
func TestFederationPicksCheapestPeer(t *testing.T) {
	c := cluster.New(7)
	fast, err := c.ProvisionProfile(cluster.MustProfile("cloudlab-c220g1"), 2)
	if err != nil {
		t.Fatal(err)
	}
	slowProfile := *cluster.MustProfile("cloudlab-c220g1")
	slowProfile.Name = "slow-nic"
	slowProfile.NICBWBps /= 100
	slowProfile.NICLatS *= 100
	slow, err := c.ProvisionProfile(&slowProfile, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*cluster.Node{slow[0], fast[0], fast[1]} // host 0 slow, 1-2 fast
	w, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(1 << 20); err != nil {
		t.Fatal(err)
	}
	profiles := []*cluster.MachineProfile{&slowProfile, fast[0].Profile(), fast[1].Profile()}
	tier := NewTier(Options{})
	fed, err := NewFederation(tier, w, profiles)
	if err != nil {
		t.Fatal(err)
	}

	content := bytes.Repeat([]byte("x"), 100<<10)
	refs := tier.PutChunked(content)
	key := entryKey("contested")
	// Slow host publishes first: holder order must not beat cost order.
	if err := fed.Publish(0, key, refs); err != nil {
		t.Fatal(err)
	}
	if err := fed.Publish(1, key, refs); err != nil {
		t.Fatal(err)
	}
	res, err := fed.Fetch(2, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.From != 1 {
		t.Fatalf("fetch served by host %d, want the fast peer 1", res.From)
	}
	if want := fed.transferCost(2, 1, int64(len(content))); res.Cost >= fed.transferCost(2, 0, int64(len(content))) || res.Cost < want {
		t.Fatalf("cost %g not consistent with the alpha-beta model", res.Cost)
	}
}

// TestFederationSurvivesEviction: publishing an entry whose chunks were
// evicted from the tier is skipped cleanly, and fetch of it misses —
// never serves wrong bytes.
func TestFederationSurvivesEviction(t *testing.T) {
	c := cluster.New(3)
	nodes, err := c.Provision("cloudlab-c220g1", 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(1 << 20); err != nil {
		t.Fatal(err)
	}
	profiles := []*cluster.MachineProfile{nodes[0].Profile(), nodes[1].Profile()}
	tier := NewTier(Options{MaxBytes: 512, Shards: 1})
	fed, err := NewFederation(tier, w, profiles)
	if err != nil {
		t.Fatal(err)
	}
	refs := tier.PutChunked(bytes.Repeat([]byte("v"), 400))
	tier.Put(bytes.Repeat([]byte("evictor"), 60)) // push the chunk out
	key := entryKey("evicted-entry")
	if err := fed.Publish(0, key, refs); err != nil {
		t.Fatal(err)
	}
	if fed.Present(0, key) {
		t.Fatal("publish of evicted chunks must be skipped")
	}
	res, err := fed.Fetch(1, key)
	if err != nil || res.Kind != FetchMiss {
		t.Fatalf("want miss for unpublishable entry, got %v err %v", res.Kind, err)
	}
}

func TestFederationForget(t *testing.T) {
	fed, tier, _ := testFederation(t, 2)
	key := entryKey("forgettable")
	if err := fed.Publish(0, key, tier.PutChunked([]byte("data"))); err != nil {
		t.Fatal(err)
	}
	fed.Forget(key)
	if res, _ := fed.Fetch(1, key); res.Kind != FetchMiss {
		t.Fatal("forgotten entry must miss")
	}
}

// TestFederationRemoteCheaperThanRecompute is the acceptance shape at
// every simulated host count: fetching a published entry from a peer
// costs less virtual time than the stage recompute it replaces, at 1,
// 16 and 256 hosts.
func TestFederationRemoteCheaperThanRecompute(t *testing.T) {
	const recomputeSeconds = 1.0 // a cheap 1-second stage
	for _, hosts := range []int{1, 16, 256} {
		fed, tier, _ := testFederation(t, hosts)
		content := bytes.Repeat([]byte("entry"), 40<<10) // 200 KB
		refs := tier.PutChunked(content)
		key := entryKey(fmt.Sprintf("scale-%d", hosts))
		if err := fed.Publish(0, key, refs); err != nil {
			t.Fatal(err)
		}
		caller := hosts - 1
		res, err := fed.Fetch(caller, key)
		if err != nil {
			t.Fatal(err)
		}
		wantKind := FetchRemote
		if caller == 0 {
			wantKind = FetchLocal
		}
		if res.Kind != wantKind {
			t.Fatalf("hosts=%d: fetch kind %v, want %v", hosts, res.Kind, wantKind)
		}
		if res.Cost >= recomputeSeconds {
			t.Fatalf("hosts=%d: peer fetch costs %.6fs, recompute %.1fs — fetch must win",
				hosts, res.Cost, recomputeSeconds)
		}
	}
}
