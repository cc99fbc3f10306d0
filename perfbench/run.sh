#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own that links the repository's
# packages from the parent directory) and runs it. Every argument passes
# through, e.g.
#
#   bash perfbench/run.sh --workload kvs-read --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; the go command's home is pointed there too so nothing is
# written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/gopath" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=readonly \
		go build -trimpath -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
