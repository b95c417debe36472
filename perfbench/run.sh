#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload synth_sweep_8x8 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, CPU
# profiles, spans, the serve cache spill) stays under .bench_build/ at
# the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
