// Package repl replicates the crash-consistent artifact store across N
// simulated nodes, so the repository — the Popper convention's durable
// evidence — survives the loss or partition of any minority of hosts.
//
// The design is a deterministic primary/replica state machine in the
// style of a distributed filesystem's meta-partition FSM: one primary
// per epoch appends store mutations (workspace syncs, incremental
// puts) to a quorum-commit log and streams them to followers over
// internal/gasnet mailboxes; an operation succeeds only once a
// majority holds it, and every replica applies the committed prefix to
// its own store in log order — so replicas agree on committed state by
// construction, and their trees stay byte-identical until a repair
// lays out one replica's object pool its own way. Agreement is judged
// on committed state (store.StateDigest), never on pool layout. Failover is epoch-bumping: when followers stop hearing
// heartbeats (virtual-clock timed), the first eligible replica
// requests votes, and a candidate wins only if its log subsumes every
// committed record. A primary cut off in a minority partition cannot
// commit (quorum) and cannot serve reads (each read re-confirms
// leadership with a quorum round), so divergent minorities are fenced;
// on heal, anti-entropy walks the new primary's log backward to the
// fork point, truncates the divergent suffix and streams the missing
// records — or installs a full tree snapshot when replay cannot reach
// the rejoining replica. `make split` drives the convergence matrix
// over seeded crash/partition/heal schedules (docs/RESILIENCE.md).
//
// Everything is deterministic: time is the virtual clock, message
// delivery is synchronous in a fixed order under one group lock, and
// network splits come from seeded internal/fault partition rules on
// gasnet link sites.
package repl

import (
	"errors"
	"fmt"
	"sync"

	"popper/internal/cluster"
	"popper/internal/fault"
	"popper/internal/gasnet"
	"popper/internal/store"
)

// role is a replica's place in the current epoch.
type role uint8

const (
	follower role = iota
	candidate
	primary
)

func (r role) String() string {
	switch r {
	case primary:
		return "primary"
	case candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// Options configures a replica group.
type Options struct {
	// Replicas is the group size N (quorum is N/2+1). Defaults to 3.
	Replicas int
	// Seed drives the simulated cluster. Defaults to 1.
	Seed int64
	// Machine is the cluster profile replicas run on.
	Machine string
}

func (o *Options) defaults() {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Machine == "" {
		o.Machine = "cloudlab-c220g1"
	}
}

const (
	// heartbeatEvery is the primary's heartbeat period in virtual
	// seconds.
	heartbeatEvery = 0.5
	// electionAfter is how long, in virtual seconds, a follower waits
	// without hearing a primary before standing for election.
	electionAfter = 2.0
	// mailboxBytes sizes each directed mailbox in a rank's segment.
	mailboxBytes int64 = 4 << 20
)

// QuorumError reports an operation the primary could not commit: fewer
// than a majority of replicas acknowledged it. Unless OutcomeUnknown is
// set, the proposal was rolled back everywhere it reached, so the
// repository state is as if the operation was never attempted.
type QuorumError struct {
	Op   string
	Need int
	Got  int
	// OutcomeUnknown marks a proposal the primary could not roll back:
	// a higher epoch deposed it mid-commit, the record stays in its log,
	// and the new primary's anti-entropy decides whether it commits.
	// Callers must not assume the operation had no effect — blindly
	// retrying is safe only for idempotent operations.
	OutcomeUnknown bool
}

func (e *QuorumError) Error() string {
	if e.OutcomeUnknown {
		return fmt.Sprintf("repl: %s not acknowledged: primary deposed mid-commit after %d/%d replicas; outcome unknown (the new primary's anti-entropy decides the record's fate)", e.Op, e.Got, e.Need)
	}
	return fmt.Sprintf("repl: %s not committed: %d/%d replicas reachable, quorum not met; the operation was rolled back", e.Op, e.Got, e.Need)
}

// ErrNoPrimary reports that no replica could establish leadership — a
// majority of the group is crashed or unreachable.
var ErrNoPrimary = errors.New("repl: no primary: a majority of replicas is crashed or unreachable")

// replica is one member's full state. Fields are guarded by the group
// lock; each replica touches only its own state plus the wire.
type replica struct {
	id   int
	st   *store.Store
	down bool

	// Log state: records (base, base+len(log)] are in memory; the store
	// tree incorporates everything through `applied`. base/baseEpoch/
	// baseDigest identify the state the log grows from: an opened store
	// starts at its committed generation, epoch 0 and its committed-state
	// digest (store.StateDigest), so replicas that committed the same
	// history agree at open whatever has rotted at rest; a snapshot
	// install moves them forward.
	log        []Record
	base       int
	baseEpoch  int
	baseDigest [32]byte
	commit     int
	applied    int

	// Epoch state.
	epoch    int
	votedFor int
	role     role
	leader   int

	// Virtual-clock bookkeeping.
	lastHeard float64 // follower: last append from a live primary
	lastBeat  float64 // primary: last heartbeat broadcast

	// Primary-only replication cursors, indexed by peer id.
	next  []int
	acked []int

	lastStats store.SyncStats // stats of the most recent local apply
	applyErr  error           // terminal store failure (replica stops)
}

func (r *replica) lastIndex() int { return r.base + len(r.log) }

func (r *replica) lastEpoch() int {
	if len(r.log) > 0 {
		return r.log[len(r.log)-1].Epoch
	}
	return r.baseEpoch
}

// recordAt returns the in-memory record at index i (i > base).
func (r *replica) recordAt(i int) *Record { return &r.log[i-r.base-1] }

// digestAt identifies the state as of index i: the base identity for
// the snapshot point, a record digest above it.
func (r *replica) digestAt(i int) [32]byte {
	if i == r.base {
		return r.baseDigest
	}
	return r.recordAt(i).digest
}

func (r *replica) epochAt(i int) int {
	if i == r.base {
		return r.baseEpoch
	}
	return r.recordAt(i).Epoch
}

// Group is a replicated artifact store: the same Sync/Put/Load surface
// as *store.Store, backed by N replicas with quorum commits. Safe for
// concurrent use; all operations serialize on the group lock, which is
// what makes fault schedules deterministic.
type Group struct {
	mu    sync.Mutex
	opts  Options
	world *gasnet.World
	nodes []*cluster.Node
	reps  []*replica
	clock float64
}

// New builds a group of opts.Replicas members whose stores live on the
// VFS the factory returns per id. Replica 0 starts as primary of epoch
// 1; followers hear its first heartbeat before any election timer can
// fire.
func New(opts Options, mkfs func(id int) store.VFS) (*Group, error) {
	opts.defaults()
	c := cluster.New(opts.Seed)
	nodes, err := c.Provision(opts.Machine, opts.Replicas)
	if err != nil {
		return nil, err
	}
	world, err := gasnet.New(nodes, cluster.NewNetwork(), nil)
	if err != nil {
		return nil, err
	}
	if err := world.AttachAll(int64(opts.Replicas) * mailboxBytes); err != nil {
		return nil, err
	}
	g := &Group{opts: opts, world: world, nodes: nodes}
	// frontier[id] is replica id's put-record frontier: Puts do not move
	// the generation, so it breaks generation ties at election. A
	// replica whose records cannot be listed counts as holding none.
	frontier := make([]int, opts.Replicas)
	for id := 0; id < opts.Replicas; id++ {
		st := store.New(mkfs(id))
		r := &replica{
			id: id, st: st,
			epoch: 1, votedFor: -1, leader: 0,
			next:  make([]int, opts.Replicas),
			acked: make([]int, opts.Replicas),
		}
		// A replica whose manifest does not load joins with an empty
		// base: it cannot lead, and `popper fsck --repair` installs the
		// quorum's manifest on it while anti-entropy catches it up.
		if man, err := st.Manifest(); err == nil && man != nil {
			r.base = man.Generation
			frontier[id], _ = st.PutFrontier()
		}
		var err error
		r.baseDigest, err = st.StateDigest()
		if err != nil {
			return nil, fmt.Errorf("repl: replica %d: %w", id, err)
		}
		r.commit, r.applied = r.base, r.base
		g.reps = append(g.reps, r)
	}
	// A pre-existing repository elects the most advanced replica — the
	// highest generation, then the furthest intact put record in it; a
	// fresh one starts at replica 0. Ties break toward the lowest id.
	lead := 0
	for id, r := range g.reps {
		if base := g.reps[lead].base; r.base > base || r.base == base && frontier[id] > frontier[lead] {
			lead = id
		}
	}
	ldr := g.reps[lead]
	ldr.role = primary
	ldr.leader = lead
	for _, r := range g.reps {
		r.leader = lead
	}
	g.resetCursorsLocked(ldr)
	return g, nil
}

// ReplicaRoot returns the directory of replica id's store under a
// repository root (replica 0 is the repository itself; the rest live
// in the .popper-replicas dot-directory, invisible to the primary's
// tracked tree).
func ReplicaRoot(dir string, id int) string {
	if id == 0 {
		return dir
	}
	return dir + "/.popper-replicas/r" + fmt.Sprint(id)
}

// OpenDir opens a replicated store over a real repository directory:
// replica 0 is the directory itself, replicas 1..N-1 live under
// .popper-replicas/. A group reopened over an existing tree elects the
// replica with the highest committed generation (then the furthest
// intact put record in it), and anti-entropy (log replay or snapshot
// install) heals the rest.
func OpenDir(dir string, opts Options) (*Group, error) {
	opts.defaults()
	return New(opts, func(id int) store.VFS {
		return store.NewDirFS(ReplicaRoot(dir, id))
	})
}

// SetFaults arms a deterministic injector across the group: gasnet
// link sites ("gasnet/link/r<a>/r<b>") model network splits between
// replicas, and each replica's disk sites keep their usual meaning.
func (g *Group) SetFaults(inj *fault.Injector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.world.SetFaults(inj)
	for _, r := range g.reps {
		r.st.SetFaults(inj)
	}
}

// Size returns the group size N.
func (g *Group) Size() int { return len(g.reps) }

func (g *Group) quorum() int { return len(g.reps)/2 + 1 }

// Tick advances virtual time: primaries heartbeat on schedule, and
// followers that outwaited electionAfter stand for election.
func (g *Group) Tick(dt float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.clock += dt
	g.stepLocked()
}

// Crash stops a replica: it neither sends nor receives until Restart.
func (g *Group) Crash(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reps[id].down = true
}

// Restart brings a crashed replica back as a follower. Its log and
// store survive (they are modeled durable); it rejoins via the next
// heartbeat's anti-entropy.
func (g *Group) Restart(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.reps[id]
	r.down = false
	r.role = follower
	r.leader = -1
	r.lastHeard = g.clock
}

// Down reports whether a replica is crashed.
func (g *Group) Down(id int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reps[id].down
}

// Sync replicates a workspace sync: quorum-commit one RecSync record,
// apply it to every reachable replica's store. On quorum failure the
// proposal is rolled back and the error is a *QuorumError.
func (g *Group) Sync(files map[string][]byte) (store.SyncStats, error) {
	for path := range files {
		if err := store.CheckPath(path); err != nil {
			return store.SyncStats{}, err // refused before it reaches the log
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ldr, err := g.ensureLeaderLocked()
	if err != nil {
		return store.SyncStats{}, err
	}
	rec := Record{Kind: RecSync, Files: files}
	if err := g.commitLocked(ldr, rec, "sync"); err != nil {
		return store.SyncStats{}, err
	}
	return ldr.lastStats, nil
}

// Put replicates one durable artifact write (the sweep journal's
// commit path) under the same quorum rules as Sync.
func (g *Group) Put(path string, data []byte) error {
	if err := store.CheckPath(path); err != nil {
		return err // refused before it reaches the log
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ldr, err := g.ensureLeaderLocked()
	if err != nil {
		return err
	}
	rec := Record{Kind: RecPut, Path: path, Data: data}
	return g.commitLocked(ldr, rec, "put "+path)
}

// Load returns the tracked workspace from the primary, after a quorum
// round re-confirms its leadership — a minority-partitioned primary
// cannot serve stale reads (read-your-writes at the quorum).
func (g *Group) Load() (map[string][]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ldr, err := g.ensureLeaderLocked()
	if err != nil {
		return nil, err
	}
	if !g.confirmLocked(ldr) {
		return nil, ErrNoPrimary
	}
	return ldr.st.Load()
}

// Read returns one tracked file through the same quorum-confirmed
// path as Load.
func (g *Group) Read(path string) ([]byte, error) {
	files, err := g.Load()
	if err != nil {
		return nil, err
	}
	data, ok := files[path]
	if !ok {
		return nil, fmt.Errorf("repl: read %s: no such tracked file", path)
	}
	return data, nil
}

// Primary returns the current primary's id, electing one first if
// needed (-1 if no quorum can be assembled).
func (g *Group) Primary() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	ldr, err := g.ensureLeaderLocked()
	if err != nil {
		return -1
	}
	return ldr.id
}

// Epoch returns the highest epoch any live replica has seen.
func (g *Group) Epoch() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := 0
	for _, r := range g.reps {
		if r.epoch > e {
			e = r.epoch
		}
	}
	return e
}

// Heal drives anti-entropy to completion: the primary pushes its
// committed log (or snapshots) to every reachable replica. Crashed or
// partitioned replicas are skipped; call again after they return. A
// rejoining replica can depose the primary mid-push (a failed write on
// the other side of a split leaves it with an inflated epoch), so Heal
// re-elects and retries until a primary survives its own push.
func (g *Group) Heal() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for round := 0; round < maxElectionRounds; round++ {
		ldr, err := g.ensureLeaderLocked()
		if err != nil {
			return err
		}
		g.replicateLocked(ldr, ldr.lastIndex())
		if ldr.role == primary {
			return nil
		}
	}
	return ErrNoPrimary
}

// LoadCacheState and SaveCacheState delegate the advisory stage-cache
// sidecar to replica 0's store: warm-start state is node-local advice,
// not replicated repository state (store.Advisory).
func (g *Group) LoadCacheState() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reps[0].st.LoadCacheState()
}

func (g *Group) SaveCacheState(data []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reps[0].st.SaveCacheState(data)
}

// Object serves the cas-tier fallback from replica 0's object cache.
func (g *Group) Object(hash [32]byte) ([]byte, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reps[0].st.Object(hash)
}

// Store exposes one replica's underlying store (tests and audits).
func (g *Group) Store(id int) *store.Store { return g.reps[id].st }
