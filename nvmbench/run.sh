#!/usr/bin/env bash
# Builds the nvmwear benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the root of a checkout:
#
#   bash nvmbench/run.sh --workload spec-lifetime --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the span files all stay under
# .bench_build/nvmbench in the checkout. The build fails, and so does this
# script, where the checkout holds no nvmwear sources.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/nvmbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/nvmbench" && go build -o "$out/nvmbench" .)
exec "$out/nvmbench" "$@"
