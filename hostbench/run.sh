#!/usr/bin/env bash
# Builds the file-service host-time benchmark from this checkout's
# sources and runs it. Run from the repository root:
#
#   bash hostbench/run.sh --workload andrew-single --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, span dumps and exact-count records all
# stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/fsserver || ! -f hostbench/go.mod ]]; then
	echo "hostbench: run from the repository root; the program's sources are missing here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd hostbench && go build -o "$build/bin/hostbench" .)
exec "$build/bin/hostbench" --out "$build/out" "$@"
