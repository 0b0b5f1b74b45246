#!/usr/bin/env bash
# Builds cmd/lcfd and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the root of
# the checkout:
#
#   bash lcfbench/run.sh --workload wire-closed --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/lcfbench, Go's
# build cache included; the build is offline and never fetches modules.
#
# The benchmark, and the lcfd it starts, run on one CPU (the first this
# shell may use), so Go sizes GOMAXPROCS to 1 in both. On a shared virtual
# machine every wake-up of an idle virtual CPU waits for the hypervisor;
# a client and a daemon that wake each other across two CPUs measure that
# wait more than the switch (README.md, "Why one CPU").
set -euo pipefail
out="$PWD/.bench_build/lcfbench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Telemetry off in the fresh config directory: in its default (local) mode
# the go command forks a detached telemetry process that outlives the
# build, and with it this script.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/lcfd" ./cmd/lcfd
(cd lcfbench && go build -o "$out/lcfbench" .)
allowed=$(taskset -pc $$)
cpu=${allowed##*: }
cpu=${cpu%%[-,]*}
exec taskset -c "$cpu" "$out/lcfbench" -lcfd "$out/lcfd" -out "$out" "$@"
