#!/usr/bin/env bash
# A/B pairs of the service benchmark: a base revision against the
# working tree, run alternately on the same seeds.
#
#   scripts/svcbench_pairs.sh <workload> <base-rev> [pairs=10] [seconds=20]
#
# Exports <base-rev> with `git archive` (offline; nothing is registered in
# .git, so an interrupted run leaves no state behind), builds it and the
# working tree into separate target directories under a temporary
# directory, then runs the command from BENCHMARK.json once per side for
# each seed 1..pairs. The side that runs first alternates from pair to
# pair. Prints each pair's end-to-end metrics and, per metric, both
# medians, the relative change and how many pairs the working tree won.
# Nothing is written under svcbench/.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: $0 <workload> <base-rev> [pairs] [seconds]" >&2
  exit 2
fi
workload=$1
base_rev=$2
pairs=${3:-10}
seconds=${4:-20}

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/svcbench_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive --format=tar "$base_rev" | tar -x -C "$work/base"
# the base run uses the base revision's own benchmark definition
mapfile -t base_cmd < <(python3 -c \
  'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' \
  "$work/base/BENCHMARK.json")
mapfile -t change_cmd < <(python3 -c \
  'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' \
  "$root/BENCHMARK.json")

# run_side <base|change> <seed> <out-file>
run_side() {
  local dir cmd
  if [[ $1 == base ]]; then
    dir="$work/base"
    cmd=("${base_cmd[@]}")
  else
    dir="$root"
    cmd=("${change_cmd[@]}")
  fi
  (cd "$dir" && CARGO_TARGET_DIR="$work/target-$1" "${cmd[@]}" \
    --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) >"$3"
}

for side in base change; do
  echo "==> building $side" >&2
  dir="$work/base"
  [[ $side == change ]] && dir="$root"
  (cd "$dir" && CARGO_TARGET_DIR="$work/target-$side" \
    cargo build --release --offline --quiet --manifest-path svcbench/Cargo.toml)
done

for ((seed = 1; seed <= pairs; seed++)); do
  if ((seed % 2)); then order=(base change); else order=(change base); fi
  for side in "${order[@]}"; do
    echo "==> pair $seed/$pairs: $side" >&2
    run_side "$side" "$seed" "$work/$side-$seed.txt"
  done
  echo "${order[0]}" >"$work/first-$seed.txt"
done

python3 - "$root/BENCHMARK.json" "$work" "$pairs" "$workload" "$base_rev" <<'PY'
import json, statistics, sys

bench, work, pairs, workload, base_rev = sys.argv[1:6]
metrics = json.load(open(bench))["end_to_end"]

def result(side, seed):
    lines = open(f"{work}/{side}-{seed}.txt").read().strip().splitlines()
    return json.loads(lines[-1])

def value(res, name):
    return res["metrics"][name]["value"]

rows = []
for seed in range(1, int(pairs) + 1):
    first = open(f"{work}/first-{seed}.txt").read().strip()
    b, c = result("base", seed), result("change", seed)
    rows.append((seed, first, b, c))

print(f"# svcbench pairs: workload={workload} base={base_rev} change=working tree")
for seed, first, b, c in rows:
    ok = all(r.get("correct") is True and r.get("failed", 0) == 0 for r in (b, c))
    cells = " ".join(
        f"{m['name']}={value(b, m['name']):.6g}->{value(c, m['name']):.6g}" for m in metrics
    )
    print(f"pair seed={seed} first={first} correct={ok} {cells}")

def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

print(f"{'metric':<16} {'base median':>14} {'change median':>14} {'change':>8} {'wins':>6}  base IQR")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    bs = [value(b, name) for _, _, b, _ in rows]
    cs = [value(c, name) for _, _, _, c in rows]
    bm, cm = statistics.median(bs), statistics.median(cs)
    wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(bs, cs))
    delta = (cm - bm) / bm * 100 if bm else float("nan")
    lo, hi = quartiles(bs)
    print(f"{name:<16} {bm:>14.6g} {cm:>14.6g} {delta:>+7.1f}% {wins:>3}/{len(rows)}  [{lo:.6g}, {hi:.6g}]")
PY
