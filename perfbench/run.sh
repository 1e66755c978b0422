#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload train-dense --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the go
# tool's own config and telemetry files, and trace files all stay under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/trace" "$@"
