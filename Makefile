GO ?= go

.PHONY: all build test race vet fmt lint check bench fuzz fuzz-smoke

all: build

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order so
# order-dependent tests can't hide behind source order.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file in the tree (bench/ included, the bench
# build directory skipped) is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# lint runs the repo's custom determinism/concurrency/dataflow
# analyzers (internal/lint, driven by cmd/fullweb-lint): maporder,
# globalrand, walltime, rawgo, ctxflow, faultguard, plus the PR 7
# dataflow trio — hotalloc (allocation sites in //hot:path functions),
# statesync (checkpoint/merge field coverage), mergealias (Merge/
# snapshot storage aliasing). See DESIGN.md "Machine-checked
# invariants" and §13.
lint:
	$(GO) run ./cmd/fullweb-lint ./...

# check is the tier-1 gate (see README "Testing"): everything must be
# gofmt-clean, compile, pass vet and the custom lint suite, pass the
# full test suite (shuffled) under the race detector, and survive a
# short fuzz smoke over the log parsers, the checkpoint decoder and
# journal recovery.
check: fmt vet lint build race fuzz-smoke

# bench runs the repository benchmark (bench/README.md) once for each
# workload BENCHMARK.json lists, at the harness defaults (seed 1, 10
# measured seconds, untraced); each run prints one JSON line.
bench:
	for w in $$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
		bash bench/run.sh --workload $$w || exit 1; \
	done

# Short fuzz smoke (~35s total) over the checked-in corpora; part of
# the tier-1 gate so parser, sessionizer, checkpoint-decoder,
# quantile read-off, journal-recovery and intake-delivery regressions
# surface immediately. The streamer/batch target is the root of the
# streaming-equals-batch invariant. The checkpoint target runs with
# minimization off: its inputs are several KiB of JSON, and minimizing
# each new one would take the whole budget.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseCLF -fuzztime=5s ./internal/weblog/
	$(GO) test -fuzz=FuzzChunkedIngest -fuzztime=5s ./internal/weblog/
	$(GO) test -fuzz=FuzzStreamerBatchEquivalence -fuzztime=3s ./internal/session/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=5s -fuzzminimizetime=0 ./internal/stream/
	$(GO) test -fuzz=FuzzSketchReadOffs -fuzztime=5s ./internal/stream/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=5s ./internal/serve/
	$(GO) test -fuzz=FuzzIntakeDeliveries -fuzztime=5s ./internal/serve/

# Longer fuzz pass over every fuzz-smoke target: the log parsers
# (with the timestamp decoder's and field splitter's differential
# checks), chunked ingest, streamer/batch equivalence, the checkpoint
# decoder, the quantile sketch's incremental read-offs, journal
# recovery and the intake's delivery reassembly. It starts warm from the seed
# corpora under testdata/fuzz/; as in fuzz-smoke, the checkpoint
# target runs with minimization off.
fuzz:
	$(GO) test -fuzz=FuzzParseCLF -fuzztime=30s ./internal/weblog/
	$(GO) test -fuzz=FuzzChunkedIngest -fuzztime=30s ./internal/weblog/
	$(GO) test -fuzz=FuzzStreamerBatchEquivalence -fuzztime=30s ./internal/session/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=30s -fuzzminimizetime=0 ./internal/stream/
	$(GO) test -fuzz=FuzzSketchReadOffs -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=30s ./internal/serve/
	$(GO) test -fuzz=FuzzIntakeDeliveries -fuzztime=30s ./internal/serve/
