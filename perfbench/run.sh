#!/usr/bin/env bash
# Builds the cfsmdiag server and the benchmark from this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload diagnose_small --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files go to $CARGO_TARGET_DIR
# (default .bench_build), so the benchmark writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/cfsmdiag" cfsmdiag/cmd/cfsmdiag
cd "$root"

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -server "$out/cfsmdiag" -out "$out" -commit "$commit" "$@"
