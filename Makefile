GO ?= go

.PHONY: all build test bench-module tier1 check race fuzz-smoke health-smoke service-smoke vet clean

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
race:
	$(GO) build -race ./...
	$(GO) test -race ./...

# fuzz-smoke gives every fuzz target ten seconds past its seed corpus:
# the journal reader, the workflow parser (what it accepts, and its fast
# path held to encoding/json), the hand JSON codec held to encoding/json,
# the batch wire decoders, the function endpoint's handler, and POST
# /v1/runs. (-fuzz takes one target and one package per run; the short
# minimize budget keeps the ten seconds for executions.)
fuzz-smoke:
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalReader$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfformat -run '^$$' -fuzz '^FuzzParseValidate$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfformat -run '^$$' -fuzz '^FuzzParseDifferential$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzCodecDifferential$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzBatchWire$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfbench -run '^$$' -fuzz '^FuzzEndpoint$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wfmd -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime 10s -fuzzminimizetime 1s

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
