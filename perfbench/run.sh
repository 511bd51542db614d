#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload dp-cold-inst1 --seed 42 --seconds 10 --trace 0
#
# The binary, the Go build cache and trace files stay under .bench_build/
# at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if ! grep -qs '^module switchv$' "$root/go.mod" || [ ! -d "$root/internal/switchv" ]; then
	echo "perfbench: $root holds no SwitchV sources to benchmark" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/bin/perfbench" .)

cd "$root"
exec "$build/bin/perfbench" "$@"
