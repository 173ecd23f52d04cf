#!/usr/bin/env bash
# Builds the end-to-end benchmark against the engine sources of this
# checkout and runs it; arguments are passed through (see README.md):
#
#   bash e2ebench/run.sh --workload tm1-mem --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# ${CARGO_TARGET_DIR:-.bench_build}: the Go build cache, the binary, the
# run's data directories (removed when it ends) and the result records.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2

cd "$root"
exec "$build/e2ebench" --datadir "$build/data" --out "$build/results" "$@"
