#!/usr/bin/env bash
# Builds edgeserved, edgeagent and the benchmark from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/edgeserved" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/edgeserved and perfbench/ not found)" >&2
	exit 2
fi

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/edgeserved" ./cmd/edgeserved
go build -o "$out/bin/edgeagent" ./cmd/edgeagent
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
