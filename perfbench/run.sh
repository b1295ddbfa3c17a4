#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it
# is run in, then runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/perfbench in the checkout. Without the repository's own
# sources next to perfbench/ the build fails and the script exits
# nonzero before any measurement.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
