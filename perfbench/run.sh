#!/bin/sh
# Builds the benchmark, siptd and tracegen from the checkout it is run
# in, then runs one workload. Run it from the repository root:
#
#   sh perfbench/run.sh --workload sweep|mix|serve --seed N --seconds S --trace 0|1
#
# Everything it writes (Go build cache, binaries, scratch state,
# result files) stays under $CARGO_TARGET_DIR (default .bench_build).
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -d "$root/cmd/siptd" ]; then
    echo "perfbench: run from the repository root (no go.mod, internal/ or cmd/siptd here)" >&2
    exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out/bin" "$out/gotmp" "$out/gopath" "$out/config"

# Keep the toolchain's caches and temp files inside the checkout, and
# never let it reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/siptd" ./cmd/siptd >&2
go build -o "$out/bin/tracegen" ./cmd/tracegen >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -out "$out" "$@"
