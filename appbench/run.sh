#!/usr/bin/env bash
# Builds the appbench binary from this checkout's sources and runs it with
# the given arguments from the checkout root. Build outputs, the Go build
# cache and the go command's own config and telemetry files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/appbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$root/appbench" && XDG_CONFIG_HOME="$out/config" go build -buildvcs=false -o "$out/appbench" .)
cd "$root"
exec "$out/appbench" "$@"
