GO ?= go

.PHONY: all build test bench-module tier1 check race fuzz-smoke campaigns examples service-smoke alloc-sites cpu-sites vet clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a module of its own, so `./...` at the root does not reach
# it: a change to an internal/ API can break the reference benchmark —
# the only performance gate — without build or test noticing.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# tier1 is the gate every change must keep green.
tier1: build test bench-module

vet:
	$(GO) vet ./...

# Pre-build the race-instrumented packages so compilation of later
# packages does not overlap running test binaries — the wall-clock
# shape tests are timing-sensitive on small machines. One gate for
# every plane: span pooling and the monitor's atomics, the journal's
# group committer, the memo cache's appender, the straggler watchdog
# and speculation race, and wfmd's shared TaskGate all ride the one
# execution core in internal/wfm, so a per-plane target only re-ran it.
# The batcher's tests run fifty times more: its delivery race (a batch-
# mate of a failed task reported cancelled) showed in one run of eight.
# The fixed-scale tests run twenty times more: Apply publishes the pods'
# round-robin queues that Invoke and ServeBatch read. So do the transition
# invariants: every sink is fed from workers, the event loop, the breaker
# and the straggler watchdog at once. (TestAttemptPathComposition checks
# them too, once: its straggler cells flag by wall-clock timing, which
# twenty parallel repeats on a small machine do not hold.) The service
# log's crash-at-every-record and migration tests run ten times: every
# run's executor appends to the one log while restarts fold it. The
# fault injector's tests run twenty times: its per-name arrival map is
# shared by every frame of a batch. So do the front half's parallel paths
# (dag.Split above 8,192 tasks): the level-parallel task fingerprints and
# the chunked memo probe, each held to a sequential reference. So does the
# cluster's accounting window: every pod's reserve, busy, memory and
# release calls integrate into it under the one cluster lock.
race:
	$(GO) build -race ./...
	$(GO) test -race ./...
	$(GO) test -race ./internal/wfm -run 'TestBatch' -count=50
	$(GO) test -race ./internal/wfm -run 'TestTransitionInvariants' -count=20
	$(GO) test -race ./internal/serverless -run 'TestFixedScale|TestMinScale' -count=20
	$(GO) test -race ./internal/wfmd -run 'TestServiceLog|TestParentDataDir' -count=10
	$(GO) test -race ./internal/wfbench -run 'TestInjector' -count=20
	$(GO) test -race ./internal/wfformat -run 'TestTaskFingerprintsLevelParallel' -count=20
	$(GO) test -race ./internal/wfm -run 'TestProbeMemoMatchesSequential' -count=20
	$(GO) test -race ./internal/cluster -run 'TestWindowRace' -count=20

# alloc-sites names who allocates on the scale path: the batched case of
# the back-half budget test (a 10k fan-out, batches of 512, a synced
# journal, the in-process platform behind a loopback) with every
# allocation sampled, as allocations per task by site: what the function
# allocates itself, then with its callees. The test writes the allocs
# profile on each side of the window its budget counts (-alloc-profiles)
# and the rows are their difference, so the test's set-up — building the
# workflow, a cold run before a re-run — is not in them, nor is writing
# the profiles. SITES sets how
# many rows, ALLOC_OUT where the test binary and profiles go.
# ALLOC_TEST picks the test, e.g. ALLOC_TEST='TestFrontHalfAllocationBudget/memoized$$'.
SITES ?= 40
ALLOC_OUT ?= .bench_build/alloc-sites
ALLOC_TEST ?= TestBackHalfAllocationBudget/batched$$
alloc-sites:
	mkdir -p $(ALLOC_OUT)
	$(GO) test ./internal/wfm -run '$(ALLOC_TEST)' -count=1 \
		-o $(ALLOC_OUT)/wfm.test -memprofilerate=1 -args -alloc-profiles=$(abspath $(ALLOC_OUT))
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=$(SITES) -nodefraction=0 -ignore=runtime/pprof \
		-diff_base $(ALLOC_OUT)/before.prof $(ALLOC_OUT)/wfm.test $(ALLOC_OUT)/after.prof 2>/dev/null | \
		awk 'rows {printf "%8.2f /task  with callees %8.2f  %s\n", $$1/10000, $$4/10000, $$6 " " $$7; next} /flat%/ {rows = 1; next} {print}'

# cpu-sites is alloc-sites for time, on the front half: BenchmarkMemoizedRerun
# (a 100k fan-out re-run against a full memo cache, so compile,
# fingerprints, cache open and probe are the whole run) under the CPU
# profiler, as -cum rows. Only the samples labelled window=rerun count:
# the cold run that fills the cache is set-up. CPU_ITERS sets the re-runs,
# SITES the rows, CPU_OUT where the test binary and profile go.
CPU_ITERS ?= 10
CPU_OUT ?= .bench_build/cpu-sites
cpu-sites:
	mkdir -p $(CPU_OUT)
	$(GO) test ./internal/wfm -run '^$$' -bench '^BenchmarkMemoizedRerun$$' -benchtime $(CPU_ITERS)x -count=1 \
		-o $(CPU_OUT)/wfm.test -cpuprofile $(abspath $(CPU_OUT))/cpu.prof
	$(GO) tool pprof -top -cum -nodecount=$(SITES) -tagfocus=window=rerun $(CPU_OUT)/wfm.test $(CPU_OUT)/cpu.prof 2>/dev/null

# fuzz-smoke gives every fuzz target ten seconds past its seed corpus:
# the journal reader, a journal reopened over an arbitrary last segment
# and appended to, the workflow parser (what it accepts, and its fast
# path held to encoding/json), the hand JSON codec held to encoding/json,
# the batch wire decoders, the function endpoint's handler, POST
# /v1/runs, wfmd's service log replay, and the memo cache file. (-fuzz
# takes one target and one package per run; the short
# minimize budget keeps the ten seconds for executions.)
fuzz-smoke:
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalReader$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalReopen$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfformat -run '^$$' -fuzz '^FuzzParseValidate$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfformat -run '^$$' -fuzz '^FuzzParseDifferential$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzCodecDifferential$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzBatchWire$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzEndpoint$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfmd -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfmd -run '^$$' -fuzz '^FuzzServiceLogReplay$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/memo -run '^$$' -fuzz '^FuzzMemoOpen$$' -fuzztime 10s -fuzzminimizetime 1s

# service-smoke boots the real wfmd binary, submits runs for two
# tenants over HTTP, kills the daemon mid-run (SIGKILL), restarts it on
# the same data dir, and asserts every run resumes to success — the
# end-to-end version of the restart/resume tests.
service-smoke:
	./scripts/service_smoke.sh

# campaigns runs the acceptance campaigns end to end on their CI sizes:
# stragglers (every injected tail flagged, speculation cuts the makespan
# by >= 25%, the journal duplicate-free), incremental re-execution (each
# edit re-invokes exactly its closure), the fault campaign unbatched and
# batched (no task fails), and crash/resume (every trial converges to
# the reference drive, no recorded task runs twice). cmd/experiments
# prints each table and exits non-zero on any failed gate.
campaigns:
	$(GO) run ./cmd/experiments -suite health -health-tasks 16 -health-delay-ms 800
	$(GO) run ./cmd/experiments -suite memo -memo-tasks 300 -memo-edits 5
	$(GO) run ./cmd/experiments -suite resilience
	$(GO) run ./cmd/experiments -suite resilience -batch
	$(GO) run ./cmd/experiments -suite recovery -recovery-tasks 120 -recovery-trials 2

# examples runs each example program end to end; a non-zero exit fails
# the target. Each takes a few seconds.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hybrid
	$(GO) run ./examples/genomics
	$(GO) run ./examples/multiphase
	$(GO) run ./examples/federation

# check is the pre-merge bar: tier1 plus vet and the race detector.
check: tier1 vet race

clean:
	$(GO) clean ./...
