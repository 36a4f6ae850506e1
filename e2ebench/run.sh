#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build product, cache and run artifact stays under .bench_build/ in
# the checkout, and the build never touches the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/e2ebench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/e2ebench" && go build -o "$out/e2ebench/e2ebench" .)
cd "$root"
exec "$out/e2ebench/e2ebench" "$@"
