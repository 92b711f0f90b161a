#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, and a traced
# run's Perfetto trace and CPU profiles.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)

# Between two passes the Go scavenger hands 40-60 MB of freed heap back to
# the kernel with MADV_DONTNEED, and the next pass faults every page of it
# in again (about 12,000 faults a second on fig8-grid and serve-batched).
# On a virtual machine whose host reclaims guest memory, those faults cost
# whatever the host's memory pressure makes them cost. MADV_FREE leaves the
# pages mapped until the kernel needs them, so a pass takes no such faults.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
