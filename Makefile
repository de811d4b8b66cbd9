GO ?= go

.PHONY: all build test bench-module tier1 check race fuzz-smoke health-smoke service-smoke alloc-sites vet clean

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
# run's executor appends to the one log while restarts fold it.
race:
	$(GO) build -race ./...
	$(GO) test -race ./...
	$(GO) test -race ./internal/wfm -run 'TestBatch' -count=50
	$(GO) test -race ./internal/wfm -run 'TestTransitionInvariants' -count=20
	$(GO) test -race ./internal/serverless -run 'TestFixedScale|TestMinScale' -count=20
	$(GO) test -race ./internal/wfmd -run 'TestServiceLog|TestParentDataDir' -count=10

# alloc-sites names who allocates on the scale path: the batched case of
# the back-half budget test (a 10k fan-out, batches of 512, a synced
# journal, the in-process platform behind a loopback) with every
# allocation sampled, as allocations per task by site: what the function
# allocates itself, then with its callees. The rows of synthTask,
# benchFanout, insertSorted and Sprintf are the test building its
# workflow, outside the run the budget counts. SITES sets how many rows,
# ALLOC_OUT where the test binary and profile go.
SITES ?= 40
ALLOC_OUT ?= .bench_build/alloc-sites
alloc-sites:
	mkdir -p $(ALLOC_OUT)
	$(GO) test ./internal/wfm -run 'TestBackHalfAllocationBudget/batched$$' -count=1 \
		-o $(ALLOC_OUT)/wfm.test -memprofile $(ALLOC_OUT)/mem.prof -memprofilerate=1
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=$(SITES) $(ALLOC_OUT)/wfm.test $(ALLOC_OUT)/mem.prof 2>/dev/null | \
		awk 'rows {printf "%8.2f /task  with callees %8.2f  %s\n", $$1/10000, $$4/10000, $$6 " " $$7; next} /flat%/ {rows = 1; next} {print}'

# fuzz-smoke gives every fuzz target ten seconds past its seed corpus:
# the journal reader, the workflow parser (what it accepts, and its fast
# path held to encoding/json), the hand JSON codec held to encoding/json,
# the batch wire decoders, the function endpoint's handler, POST
# /v1/runs, and wfmd's service log replay. (-fuzz takes one target and one package per run; the short
# minimize budget keeps the ten seconds for executions.)
fuzz-smoke:
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalReader$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfformat -run '^$$' -fuzz '^FuzzParseValidate$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfformat -run '^$$' -fuzz '^FuzzParseDifferential$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzCodecDifferential$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzBatchWire$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzEndpoint$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfmd -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfmd -run '^$$' -fuzz '^FuzzServiceLogReplay$$' -fuzztime 10s -fuzzminimizetime 1s

# service-smoke boots the real wfmd binary, submits runs for two
# tenants over HTTP, kills the daemon mid-run (SIGKILL), restarts it on
# the same data dir, and asserts every run resumes to success — the
# end-to-end version of the restart/resume tests.
service-smoke:
	./scripts/service_smoke.sh

# health-smoke runs the straggler campaign end to end: injected-tail
# tasks must all be flagged, speculative retry must cut the makespan by
# >= 25%, and the journal must stay duplicate-free with speculation on.
# cmd/experiments exits non-zero if any of those gates fail.
health-smoke:
	$(GO) run ./cmd/experiments -suite health -health-tasks 16 -health-delay-ms 800

# check is the pre-merge bar: tier1 plus vet and the race detector.
check: tier1 vet race

clean:
	$(GO) clean ./...
