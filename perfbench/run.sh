#!/usr/bin/env bash
# Builds the benchmark and the safemem-serve binary it drives from the
# source tree it is run in, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload apps|campaign|serve --seed N \
#        --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a safemem source tree" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C "$root/perfbench" -o "$out/bin/perfbench" .
go build -C "$root/perfbench" -o "$out/bin/safemem-serve" safemem/cmd/safemem-serve

exec "$out/bin/perfbench" -serve-bin "$out/bin/safemem-serve" -workdir "$out" "$@"
