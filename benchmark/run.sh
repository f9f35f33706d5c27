#!/usr/bin/env bash
# Builds txbench from source and runs it. One command for everything:
#
#   benchmark/run.sh [--seed N]             all six workloads, every end-to-end
#                                           metric, report in benchmark/out/report.json
#   benchmark/run.sh --trace [--seed N]     the traced run: every per-layer metric,
#                                           benchmark/out/layers.json + trace-<workload>.json
#   benchmark/run.sh --smoke                0.2 s windows, 1 repetition, + selfcheck (< 30 s)
#   benchmark/run.sh selfcheck              fault injection, determinism, generator headroom
#   benchmark/run.sh compare A.json B.json  two reports row by row; exit 1 on a regression
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one workload, one JSON result line (the driver's form)
#
# Exits non-zero on any verification failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR means "relative to where the caller stands".
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
target="${CARGO_TARGET_DIR:-$here/../target}"

# Build output goes to stderr: stdout's last line is the result.
(cd "$here" && cargo build --release --offline --quiet) >&2
bin="$target/release/txbench"

case "${1:-}" in
    selfcheck)
        shift
        exec "$bin" selfcheck --out-dir "$here/out" "$@"
        ;;
    compare)
        shift
        exec "$bin" compare "$@"
        ;;
esac
for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" run --out-dir "$here/out" "$@"
    fi
done
exec "$bin" suite --out-dir "$here/out" "$@"
