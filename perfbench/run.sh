#!/usr/bin/env bash
# Builds deepeye-server and the benchmark from this checkout's sources,
# then runs the benchmark with the given arguments, for example
#
#   bash perfbench/run.sh --workload upload-topk --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache and a private HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/work"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root" && go build -o "$out/deepeye-server" ./cmd/deepeye-server)
(cd "$here" && go build -o "$out/perfbench" .)
sub=()
if [[ "${1:-}" == "steady" ]]; then
	sub=(steady)
	shift
	cd "$root"
fi
exec "$out/perfbench" "${sub[@]}" -server "$out/deepeye-server" -work "$out/work" "$@"
