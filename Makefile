GO ?= go

# Seed matrix for the chaos suite; override with CHAOS_SEEDS="1 2 3".
CHAOS_SEEDS ?= 42 7 1337

# Seed matrix for the disk-crash suite; override with CRASH_SEEDS="...".
CRASH_SEEDS ?= 42 7 1337

# Seed matrix for the network-split suite; override with SPLIT_SEEDS="...".
SPLIT_SEEDS ?= 42 7 1337

# Seed matrix for the bit-rot suite; override with ROT_SEEDS="...".
ROT_SEEDS ?= 42 7 1337

.PHONY: build fmt-check test vet race verify bench bench-gassyfs bench-cache bench-aver bench-json bench-json-smoke chaos crash split rot e2e-smoke

build:
	$(GO) build ./...

# gofmt over every tracked Go file: any file it lists is a failure.
fmt-check:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "fmt-check: no tracked Go files"; exit 1; }; \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The full verification loop: tier-1 (build + test) plus static
# analysis and formatting, the race detector over the concurrent sweep/cache/Aver
# paths, the seeded chaos suite, the disk-crash matrix, and a one-
# iteration smoke of the scheduler benchmark recorder so regressions in
# the scaling path fail the loop, plus the bit-rot matrix proving
# silent corruption stays detectable and healable, plus a smoke of the
# end-to-end benchmark.
verify: build fmt-check vet test race chaos crash split rot bench-json-smoke e2e-smoke

# Chaos determinism suite: the fault-injection golden tests under the
# race detector, once per seed in the matrix. Each seed is a different
# deterministic failure universe; byte-identity of sweep artifacts
# across -jobs levels and across interrupt/resume must hold in all of
# them (see docs/RESILIENCE.md).
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "-- chaos suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Chaos|Fault|Retry|Quarantine|Resilien|Partition|Crash|Deadline|FailFast|Resume' \
			./internal/fault/ ./internal/sched/ ./internal/pipeline/ \
			./internal/core/ ./internal/orchestrate/ ./internal/gasnet/ ./internal/gassyfs/ \
			|| exit 1; \
	done

# Disk-crash convergence suite: for every write/rename/fsync boundary
# in the artifact store's sync and put-record paths, crash exactly
# there and prove that `popper fsck --repair` + `popper run -resume`
# reproduces a repository byte-identical to one that never crashed —
# under the race detector, once per seed (see docs/RESILIENCE.md,
# "Durability and crash recovery").
crash:
	@for seed in $(CRASH_SEEDS); do \
		echo "-- disk-crash suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'DiskCrash|CrashMatrix|Fsck|Repair|Durable|Store|Sync|Manifest|Tracked|MemFS|DirFS|Resume|Recovery|Interrupted|Put|Journal' \
			./internal/store/ ./internal/fault/ ./internal/core/ ./cmd/popper/ \
			|| exit 1; \
	done

# Network-split convergence suite: the replicated artifact store under
# every single-node crash point, every minority-partition cut/heal
# point, and the N=5 two-node minority — quorum reads stay
# read-your-writes throughout, and every healed group must converge to
# a repository byte-identical to an unfailed serial run. Runs under the
# race detector, once per seed (see docs/RESILIENCE.md, "Replication
# and failover").
split:
	@for seed in $(SPLIT_SEEDS); do \
		echo "-- network-split suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Split|Repl|Quorum|Epoch|Failover|Partition|Fence|Rejoin|Snapshot|Audit|Link' \
			./internal/repl/ ./internal/gasnet/ ./cmd/popper/ \
			|| exit 1; \
	done

# Bit-rot matrix: seeded silent corruption across every artifact class
# (workspace files, loose objects, packed extents, put records,
# manifest) x every repair rung (replica quorum, object
# pool, intact workspace copy) — each injection must be detected
# by the one verify walk, healed from the highest-priority live rung,
# and leave the tree byte-identical to an uncorrupted run, after which
# a fresh verify plans nothing; quorum-holds-the-rot degradation and
# unrepairable quarantine included. Under the race detector, once per
# seed (see docs/RESILIENCE.md, "Integrity verification and repair").
rot:
	@for seed in $(ROT_SEEDS); do \
		echo "-- bit-rot suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Rot|Scrub|Corrupt|Quorum|Reseed|Salvage|Quarantine' \
			./internal/scrub/ ./internal/store/ ./internal/cas/ \
			./internal/fault/ ./internal/repl/ ./cmd/popper/ \
			|| exit 1; \
	done

bench:
	$(GO) test -run '^$$' -bench . -benchmem

# The scale-out data path ablations: serial vs parallel compile drive,
# concurrent cached reads, scalar vs vectored RDMA.
bench-gassyfs:
	$(GO) test -run '^$$' -bench 'BenchmarkGassyfsCompileGit|BenchmarkGassyfsReadParallel|BenchmarkGasnetGetv' -benchmem

# The federated-cache benchmarks: sharded-lock contention at high
# -jobs, the zero-alloc hit path, and the tier/extent micro-benches
# (see docs/CACHE.md).
bench-cache:
	$(GO) test -run '^$$' -bench 'Cache|Tier|Extent|Federation' -benchmem -cpu 8 \
		./internal/pipeline/ ./internal/cas/

# The streaming-validation benchmarks: incremental vs full-table cost
# of validating one appended batch across window sizes (see
# docs/AVER.md, "Streaming validation").
bench-aver:
	$(GO) test -run '^$$' -bench 'BenchmarkAverStreaming' -benchmem ./internal/aver/

# The repo's recorded perf trajectory: the cluster-scheduler benchmarks
# (scaling curve at 1/16/256/1024 simulated hosts plus the
# straggler-recovery triple) into BENCH_sched.json, and the federated-
# cache benchmarks (cold vs warm 64-config overlapping sweep, warm
# hit-rate at 1/16/256 simulated hosts, peer-fetch vs recompute virtual
# cost) into BENCH_cache.json (see docs/SCHEDULING.md, docs/CACHE.md),
# and the gassyfs family (compile-git scaling curve, host-parallel
# drive) into BENCH_gassyfs.json, and the durable journal path's exact
# I/O (a 114-entry sync, 32 journal puts, the sync after them) into
# BENCH_store.json, and the simulator's host time per simulated message
# step (the LULESH proxy, blocking and overlapped, at 8 and 27 ranks)
# into BENCH_sim.json.
bench-json:
	BENCH_JSON=$(CURDIR)/BENCH_sched.json $(GO) test -run TestWriteBenchJSON -count=1 ./internal/sched/
	@echo "-- wrote BENCH_sched.json"
	BENCH_JSON=$(CURDIR)/BENCH_cache.json $(GO) test -run TestWriteCacheBenchJSON -count=1 ./internal/core/
	@echo "-- wrote BENCH_cache.json"
	BENCH_JSON=$(CURDIR)/BENCH_aver.json $(GO) test -run TestWriteAverBenchJSON -count=1 ./internal/core/
	@echo "-- wrote BENCH_aver.json"
	BENCH_JSON=$(CURDIR)/BENCH_gassyfs.json $(GO) test -run TestWriteGassyfsBenchJSON -count=1 .
	@echo "-- wrote BENCH_gassyfs.json"
	BENCH_JSON=$(CURDIR)/BENCH_scrub.json $(GO) test -run TestWriteScrubBenchJSON -count=1 ./internal/scrub/
	@echo "-- wrote BENCH_scrub.json"
	BENCH_JSON=$(CURDIR)/BENCH_store.json $(GO) test -run TestWriteStoreBenchJSON -count=1 ./internal/store/
	@echo "-- wrote BENCH_store.json"
	BENCH_JSON=$(CURDIR)/BENCH_sim.json $(GO) test -run TestWriteSimBenchJSON -count=1 .
	@echo "-- wrote BENCH_sim.json"

# Vet and test the end-to-end benchmark (e2ebench/README.md). It is its
# own Go module, so `go test ./...` above never builds it; this catches
# an API change in store, core, repl or scrub that breaks it.
e2e-smoke:
	cd e2ebench && $(GO) vet . && $(GO) test -count=1 .

# One-iteration smoke of the benchmark recorders for `make verify`:
# same code paths, tiny matrices, throwaway output files.
bench-json-smoke:
	@out=$$(mktemp); \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteBenchJSON -count=1 ./internal/sched/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteCacheBenchJSON -count=1 ./internal/core/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteAverBenchJSON -count=1 ./internal/core/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteGassyfsBenchJSON -count=1 . || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteScrubBenchJSON -count=1 ./internal/scrub/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteStoreBenchJSON -count=1 ./internal/store/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteSimBenchJSON -count=1 . || { rm -f $$out; exit 1; }; \
	rm -f $$out
