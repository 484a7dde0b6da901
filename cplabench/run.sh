#!/usr/bin/env bash
# Build the CPLA benchmark and the `cpla` binary from this checkout, then
# run one workload:
#   bash cplabench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash cplabench/run.sh --workload all            # every workload, one table each
#   bash cplabench/run.sh --self-test               # the benchmark's own tests
# Build output goes to .bench_build; generated inputs go to
# .bench_work/run-PID, which is removed when the run ends.  Build messages
# go to stderr, so the last line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
build=.bench_build
dune build --root . --build-dir "$build" \
  cplabench/main.exe cplabench/refkernel.exe cplabench/selftest.exe bin/cpla_cli.exe 1>&2
cpla="$build/default/bin/cpla_cli.exe"
if [ "${1:-}" = "--self-test" ]; then
  exec "$build/default/cplabench/selftest.exe" BENCHMARK.json "$cpla"
fi
exec "$build/default/cplabench/main.exe" --cpla "$cpla" "$@"
