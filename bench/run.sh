#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build and the run leave behind (binary, Go build cache,
# toolchain telemetry, temporary trace files) stays under .bench_build/ at
# the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
	export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
	go build -o "$out/replaybench" .
)
TMPDIR="$out/tmp" exec "$out/replaybench" "$@"
