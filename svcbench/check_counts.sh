#!/usr/bin/env bash
# Runs the traced run twice on one seed for each workload and checks that
# every deterministic count (unit "count" or "ratio", except the timing
# ratio trace_overhead_ratio) is identical between the two runs.
#
#   svcbench/check_counts.sh [seed] [seconds]
#
# Run from the repository root. Exits non-zero on the first difference.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-4}"
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path svcbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-svcbench/target}/release/svcbench"
counts() {
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace 1 |
        awk '$3 == "count" || ($3 == "ratio" && $1 != "trace_overhead_ratio") { print $1, $2 }'
}
status=0
for w in validate-stream validate-churn page-render session-patch; do
    a="$(counts "$w")"
    b="$(counts "$w")"
    if [ "$a" = "$b" ]; then
        echo "$w: $(echo "$a" | wc -l) counts repeat exactly"
    else
        echo "$w: counts differ between two runs on seed $seed:"
        diff <(echo "$a") <(echo "$b") || true
        status=1
    fi
done
exit "$status"
