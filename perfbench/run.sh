#!/usr/bin/env bash
# Build the benchmark and the service from the source tree it sits in,
# then run one workload:
#
#   bash perfbench/run.sh --workload tatp-volatile --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the WAL directories all live under .bench_build (or $CARGO_TARGET_DIR)
# inside the checkout, on the disk under test.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/lcserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/lcserve and perfbench/)" >&2
	exit 2
fi

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/lcserve" ./cmd/lcserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -lcserve "$out/lcserve" -workdir "$out" -root "$root" "$@"
