#!/bin/sh
# Build bin/xsb_serverd and the benchmark from this source tree, then run
# the benchmark with the given arguments, from the tree's root:
#
#   sh bench/serve/run.sh run --seed 1
#   sh bench/serve/run.sh --workload warm-read --seed 3 --seconds 15 --trace 0
#
# Build output goes to stderr; the benchmark's last line on stdout is its
# JSON result. The shared dune cache is turned off so the build writes
# only under _build.
#
# The benchmark runs on one CPU, the last this process may use, and so
# does every server it starts, which inherits the affinity: between two
# virtual CPUs each reply frame's wake-up costs an interrupt whose price
# follows the load on the rest of the host (bench/serve/README.md, "One
# CPU"). Without taskset it runs wherever the scheduler puts it.
set -e
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . bin/xsb_serverd.exe bench/serve/xsb_bench.exe 1>&2
bench=./_build/default/bench/serve/xsb_bench.exe
cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)
if command -v taskset >/dev/null 2>&1 && [ -n "$cpus" ]; then
  exec taskset -c "${cpus##*[,-]}" "$bench" "$@"
fi
exec "$bench" "$@"
