#!/usr/bin/env bash
# Builds fullweb and the benchmark from source, then runs one workload:
#
#   bash bench/run.sh --workload archive --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the runs
# leave behind (Go cache, binaries, per-seed trace cache, temp files,
# spans) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

go build -o "$out/bin/fullweb" ./cmd/fullweb
go build -C bench -o "$out/bin/bench" .
exec "$out/bin/bench" -bin "$out/bin/fullweb" -build "$out" "$@"
