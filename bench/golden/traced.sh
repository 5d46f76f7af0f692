#!/bin/sh
# Cross-commit golden for traced output: runs the three traced workloads
# whose trace, time-series and --json files must not move between
# commits, and checks their sha256 against bench/golden/traced.sha256.
#
#   bench/golden/traced.sh BUILD_DIR            # check
#   bench/golden/traced.sh BUILD_DIR --record   # rewrite the digests
#
# The --json reports carry the host wall time as their last field,
# `"wall_clock_ms":<ms>`; it is cut out before hashing. Files are
# written to a temporary directory that is removed on exit.
set -eu

build=$(cd "$1" && pwd)
golden=$(cd "$(dirname "$0")" && pwd)/traced.sha256
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$build/bench/fig_breakdown" --trace=breakdown.trace \
  --json=breakdown.json.raw > /dev/null
"$build/bench/ext_multinode_ring" --topology=torus2d --threads=4 \
  --metrics-every=50 --trace=torus.trace --timeseries=torus.ts \
  --json=torus.json.raw > /dev/null
"$build/bench/shmem_halo2d" --threads=4 --trace=halo2d.trace > /dev/null

for f in breakdown torus; do
  sed -E 's/,"wall_clock_ms":[^,}]*\}$/}/' $f.json.raw > $f.json
done

files="breakdown.trace breakdown.json torus.trace torus.ts torus.json
halo2d.trace"
if [ "${2:-}" = "--record" ]; then
  sha256sum $files > "$golden"
else
  sha256sum -c "$golden"
fi
