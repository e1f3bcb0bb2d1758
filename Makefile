GO ?= go

.PHONY: build test race vet verify verify-scale verify-codec verify-trace verify-transport verify-consensus verify-perfbench bench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race exercises the parallel evaluation and consensus-validation fan-out
# under the race detector, plus the realtime engine's crash/churn fault
# regressions (a crashed member must never deadlock its leader) and the
# chaostest invariant sweeps; the engines must stay clean for every worker
# count and under every fault plan.
race:
	$(GO) test -race ./...

# verify is the tier-1 gate: everything must pass before a commit.
verify: vet build race verify-codec verify-trace verify-transport verify-consensus verify-perfbench

# verify-scale gates the million-device layer: shard-count and rerun
# invariance of the sharded event engine, lazy≡eager state equality, cohort
# accounting (core + scale engine), all under -race, then a one-shot
# devices/sec benchmark smoke at 100k devices.
verify-scale:
	$(GO) test -race -run 'Shard|ParallelFold|EventPool|PeakQueue|Cohort|Scale|Stream|DeriveN|ChoiceInto' \
		./internal/simnet ./internal/rng ./internal/telemetry ./internal/core ./internal/experiments
	$(GO) test -run '^$$' -bench ScaleDevicesPerSec -benchtime 1x ./internal/experiments

# verify-codec gates the update-codec layer: encode→decode round-trips and
# corrupt-payload rejection, steady-state zero-allocation checks, golden
# Identity bit-equivalence on every engine plus worker-count invariance of
# the lossy codecs, and the bandwidth model's latency/fault-stream
# invariance, all under -race.
verify-codec:
	$(GO) test -race -run 'Codec|RoundTrip|Alloc|Corrupt|NonFinite|ByName|Transcode|Bandwidth' \
		./internal/codec ./internal/simnet ./internal/core ./internal/pipeline ./internal/realtime ./internal/experiments

# verify-trace gates the causal-span layer: shard-merge and worker-count
# byte-identity of the exported streams on every engine, concurrent
# recording under -race, Chrome/Perfetto JSON schema sanity, critical-path
# invariants, the flight-recorder ring, and the zero-allocation hooks.
verify-trace:
	$(GO) test -race -run 'Span|Trace|Chrome|CriticalPath|Flight|Shard' \
		./internal/trace ./internal/core ./internal/pipeline ./internal/realtime \
		./internal/experiments ./internal/chaostest

# verify-transport gates the real-wire layer: a build, the frame fuzz
# corpus replayed as regular tests, the frame/stall/dupe/hostile-input
# suites and the distributed≡core plus loopback≡TCP conformance goldens
# under -race, then the multi-process abdhfl-node cluster smoke (1 root,
# 2 leaders, 4 devices over real sockets with a fault plan active).
verify-transport:
	$(GO) build -o /dev/null ./cmd/abdhfl-node
	$(GO) test -race -run 'Frame|Stall|Dupe|Concurrent|Hostility|Lifecycle|Restart|Fuzz' ./internal/transport
	$(GO) test -race -run 'Conformance|MatchesCore' ./internal/node
	$(GO) test -run ClusterSmoke ./cmd/abdhfl-node

# verify-consensus gates the randomized-agreement layer: the
# adversarial-schedule ABA conformance suite (agreement/validity/termination
# over 240 seeds and three membership sizes), worker-count and transcript
# invariance, committee-rotation determinism, the registry round-trip, the
# chaostest ABA sweeps with the zero-fault ABA≡voting golden, the node
# ballot-exchange conformance (distributed≡core, loopback≡TCP under
# drop+dup), all under -race — then the 7-process abdhfl-node smoke with
# ABA deciding at the root while a drop+duplicate plan hits the ballot
# frames.
verify-consensus:
	$(GO) test -race -run 'ABA|CommitteeForRound|RotatingCommittee|NamesRoundTrip|ConsensusLatency' \
		./internal/consensus ./internal/chaostest ./internal/node ./internal/experiments
	$(GO) test -run ClusterSmokeABA ./cmd/abdhfl-node

# verify-perfbench vets and tests the benchmark module. perfbench/ is its own
# Go module, so the root build and test never compile it, yet it drives
# core, consensus, telemetry, node and transport directly. The environment
# matches perfbench/run.sh: module proxy off, no cgo.
PERFBENCH_ENV = GOPROXY=off GOFLAGS= CGO_ENABLED=0
verify-perfbench:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test ./...

# bench regenerates the tier-1 benchmark numbers (see BENCH_*.json).
bench:
	$(GO) run ./cmd/abdhfl-bench

clean:
	$(GO) clean ./...
