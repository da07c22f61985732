#!/usr/bin/env bash
# Builds servebench and setlearnd from this checkout's sources, then runs
# one benchmark workload against the daemon. All build and run state stays
# under .bench_build at the checkout root.
#
#   bash servebench/run.sh --workload point_mono --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
state=$root/.bench_build
mkdir -p "$state/gocache" "$state/gopath" "$state/tmp" "$state/work" "$state/bin"
export GOCACHE=$state/gocache GOPATH=$state/gopath GOTMPDIR=$state/tmp GOTOOLCHAIN=local GOWORK=off
cd "$root/servebench"
go build -o "$state/bin/servebench" . >&2
go build -o "$state/bin/setlearnd" setlearn/cmd/setlearnd >&2
exec "$state/bin/servebench" --setlearnd "$state/bin/setlearnd" --workdir "$state/work" "$@"
