#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload fig6 --seed 1 --seconds 20 --trace 0
#	bash perfbench/run.sh --compare runs/parent runs/change
#
# Every file the Go toolchain writes (build cache, binary, settings) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/ and the voxel module must both be present)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
