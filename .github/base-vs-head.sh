#!/usr/bin/env bash
# Compares one kind of output between the merge base of a pull request and
# its head:
#
#     bash .github/base-vs-head.sh CASE
#
# CASE is one of bundled, emit-plot, error-rows, large-sweep, digests,
# failed-runs or emit-plot-errors.
# The merge base is checked out at $RUNNER_TEMP/base and the head is the
# working directory.  The case's commands run on both trees, writing to
# $RUNNER_TEMP/<case>-<tree>; emit-plot reads the outputs of bundled, so
# bundled runs first.  The commands that failed on each tree and the case's
# diff go to $GITHUB_STEP_SUMMARY.  The script exits 1 when a command
# failed at the head and 0 otherwise: differing outputs are reported, not
# failed on, since a documented correctness fix may change them.  For
# failed-runs, whose runs are meant to fail, a failure is a run that exits
# with a code other than 3 or leaves its output directory; for
# emit-plot-errors, a command that exits with a code other than 2 or does
# not print exactly one line to stderr.
set -u

case=$1
tmp=$RUNNER_TEMP

declare -A titles=(
  [bundled]="Bundled-config outputs"
  [emit-plot]="emit-plot tables"
  [error-rows]="Error-row sweeps (tests/configs)"
  [large-sweep]="40,000-point sweep"
  [digests]="Benchmark output digests"
  [failed-runs]="Runs that fail after validate (tests/configs/run_fails)"
  [emit-plot-errors]="emit-plot on malformed tables (tests/configs/bad_tables)"
)
if [ -z "${titles[$case]+set}" ]; then
  echo "unknown case $case; choose one of ${!titles[*]}" >&2
  exit 2
fi

root() {   # root TREE: the checkout of base or head
  if [ "$1" = base ]; then echo "$tmp/base"; else pwd; fi
}

# attempt TREE MESSAGE COMMAND...: run COMMAND, and record MESSAGE as a
# failure at TREE when it fails
attempt() {
  local tree=$1 message=$2
  shift 2
  "$@" || echo "$message" >> "$tmp/$case-failures-$tree.txt"
}

oqcsim() {   # oqcsim TREE ARGS...: the tree's command line, stdout dropped
  local tree=$1
  shift
  PYTHONPATH="$(root "$tree")/src" python -m oqcsim.cli "$@" > /dev/null
}

# compare LINES SAME DIFFERENT COMMAND...: print SAME when the diff COMMAND
# finds no difference, else DIFFERENT and the diff (its first LINES lines,
# or all of it for LINES=all) in a code block
compare() {
  local lines=$1 same=$2 different=$3 out
  shift 3
  if out=$("$@" 2>&1); then
    echo "$same"
  else
    echo "$different"
    echo '```'
    if [ "$lines" = all ]; then echo "$out"; else echo "$out" | head -n "$lines"; fi
    echo '```'
  fi
}

run_bundled() {
  local config name
  for config in "$(root "$1")"/src/oqcsim/configs/*.json; do
    name=$(basename "$config" .json)
    attempt "$1" "oqcsim run failed on $name" \
      oqcsim "$1" run --config "$config" --out "$tmp/bundled-$1/$name"
  done
}

diff_bundled() {
  compare all "All outputs apart from manifest.json are byte-identical." "Differing files:" \
    diff -rq -x manifest.json "$tmp/bundled-base" "$tmp/bundled-head"
}

# the two plots of the blockade sweep and the spectrum of the Nd:CaF2
# ensemble, each from the same tree's bundled outputs
run_emit_plot() {
  local plot kind
  mkdir -p "$tmp/emit-plot-$1"
  for plot in fidelity-vs-delta:blockade_cz_sweep population-vs-time:blockade_cz_sweep \
              spectrum:nd_caf2_ensemble; do
    kind=${plot%:*}
    attempt "$1" "oqcsim emit-plot --kind $kind failed" \
      oqcsim "$1" emit-plot --kind "$kind" --results "$tmp/bundled-$1/${plot#*:}" \
        --out "$tmp/emit-plot-$1/$kind.csv"
  done
}

diff_emit_plot() {
  compare 20 "All three tables are byte-identical." \
    "Differing tables (< merge base, > head; first 20 lines of the diff):" \
    diff -r "$tmp/emit-plot-base" "$tmp/emit-plot-head"
}

# the head's tests/configs run on both trees
run_error_rows() {
  local config name
  for config in tests/configs/*.json; do
    name=$(basename "$config" .json)
    attempt "$1" "oqcsim run failed on $name" \
      oqcsim "$1" run --config "$config" --out "$tmp/error-rows-$1/$name"
  done
}

diff_error_rows() {
  local config name
  for config in tests/configs/*.json; do
    name=$(basename "$config" .json)
    compare all "$name: sweep.csv is byte-identical." \
      "$name: sweep.csv differs (< merge base, > head):" \
      diff "$tmp/error-rows-base/$name/sweep.csv" "$tmp/error-rows-head/$name/sweep.csv"
  done
}

# the head's blockade sweep over a 200 x 200 grid, with --jobs 1 on both
# trees and --jobs 2 at the head too, and each tree's fidelity-vs-delta
# table of its --jobs 1 sweep.csv (40,000 text rows, many writer blocks)
run_large_sweep() {
  local jobs
  python - "$tmp/large.json" <<'EOF'
import json, math, sys
with open("src/oqcsim/configs/blockade_cz_sweep.json") as fh:
    doc = json.load(fh)
doc["gate"]["export_trajectory"] = False
doc["sweep"]["grid"] = {
    "delta_over_omega": [1.0 + 0.5 * k for k in range(200)],
    "rabi_rad_s": [2 * math.pi * 1e8 * (k + 1) for k in range(200)]}
with open(sys.argv[1], "w") as fh:
    json.dump(doc, fh)
EOF
  for jobs in $([ "$1" = base ] && echo 1 || echo 1 2); do
    attempt "$1" "oqcsim run --jobs $jobs failed on the large sweep" \
      oqcsim "$1" run --config "$tmp/large.json" --out "$tmp/large-sweep-$1-$jobs" \
        --jobs "$jobs"
  done
  attempt "$1" "oqcsim emit-plot --kind fidelity-vs-delta failed on the large sweep" \
    oqcsim "$1" emit-plot --kind fidelity-vs-delta --results "$tmp/large-sweep-$1-1" \
      --out "$tmp/large-sweep-$1-plot.csv"
}

diff_large_sweep() {
  local pair label
  for pair in "base-1 head-1" "head-1 head-2"; do
    set -- $pair
    label="${1%-*} --jobs ${1#*-} and ${2%-*} --jobs ${2#*-}"
    compare 20 "sweep.csv at $label is byte-identical." \
      "sweep.csv at $label differs (first 20 lines of the diff):" \
      diff "$tmp/large-sweep-$1/sweep.csv" "$tmp/large-sweep-$2/sweep.csv"
  done
  compare 20 "The fidelity-vs-delta table at base and head is byte-identical." \
    "The fidelity-vs-delta table differs (first 20 lines of the diff):" \
    diff "$tmp/large-sweep-base-plot.csv" "$tmp/large-sweep-head-plot.csv"
}

# each workload at the default seed and at seed 101, as the tier-1
# benchmark steps run them
run_digests() {
  local seed workload report
  for seed in "" "--seed 101"; do
    for workload in ensemble_box closed_sweep noisy_sweep; do
      report="$tmp/digests-$1-$workload.txt"
      attempt "$1" "bench/run.py failed on $workload $seed" \
        python3 "$(root "$1")/bench/run.py" --workload "$workload" $seed --seconds 1 > "$report"
      # the sample count in the same line depends on timing; keep the seed and digest
      sed -n 's/^workload \([a-z_]*\): seed \([0-9]*\),.* digest \(sha256:[0-9a-f]*\).*/\1 seed \2 \3/p' \
        "$report" >> "$tmp/digests-$1.txt"
    done
  done
}

diff_digests() {
  compare all "All digests are equal." "Differing digests (< merge base, > head):" \
    diff "$tmp/digests-base.txt" "$tmp/digests-head.txt"
}

# the head's tests/configs/run_fails on both trees: configs that pass
# validate and whose run exits 3; each tree's exit code and the files the
# run left in --out go to a table
run_failed_runs() {
  local config name out code left
  for config in tests/configs/run_fails/*.json; do
    name=$(basename "$config" .json)
    out="$tmp/failed-runs-$1/$name"
    oqcsim "$1" run --config "$config" --out "$out"
    code=$?
    left="no directory"
    if [ -e "$out" ]; then left=$(ls -A "$out" | tr '\n' ' '); fi
    echo "| $name | $1 | $code | $left |" >> "$tmp/failed-runs-$1.txt"
    if [ "$code" != 3 ]; then
      echo "oqcsim run on $name exited $code" >> "$tmp/$case-failures-$1.txt"
    fi
    if [ -e "$out" ]; then
      echo "oqcsim run on $name left an output directory" >> "$tmp/$case-failures-$1.txt"
    fi
  done
}

diff_failed_runs() {
  echo "| config | tree | exit code | files left in --out |"
  echo "|---|---|---|---|"
  cat "$tmp/failed-runs-base.txt" "$tmp/failed-runs-head.txt"
}

# the head's tests/configs/bad_tables on both trees: results directories
# holding one malformed table each, read by the kind that reads it; each
# tree's exit code and stderr line count go to a table
run_emit_plot_errors() {
  local dir name kind code lines
  mkdir -p "$tmp/emit-plot-errors-$1"
  for dir in tests/configs/bad_tables/*/; do
    name=$(basename "$dir")
    case $(ls "$dir") in
      centers.csv) kind=spectrum ;;
      sweep.csv) kind=fidelity-vs-delta ;;
      trajectory.csv) kind=population-vs-time ;;
    esac
    oqcsim "$1" emit-plot --kind "$kind" --results "$dir" \
      --out "$tmp/emit-plot-errors-$1/$name.csv" 2> "$tmp/emit-plot-errors-$1/$name.err"
    code=$?
    lines=$(wc -l < "$tmp/emit-plot-errors-$1/$name.err")
    echo "| $name | $kind | $1 | $code | $lines |" >> "$tmp/emit-plot-errors-$1.txt"
    if [ "$code" != 2 ]; then
      echo "oqcsim emit-plot on $name exited $code" >> "$tmp/$case-failures-$1.txt"
    fi
    if [ "$lines" != 1 ]; then
      echo "oqcsim emit-plot on $name printed $lines stderr lines" >> "$tmp/$case-failures-$1.txt"
    fi
  done
}

diff_emit_plot_errors() {
  echo "| results | kind | tree | exit code | stderr lines |"
  echo "|---|---|---|---|---|"
  cat "$tmp/emit-plot-errors-base.txt" "$tmp/emit-plot-errors-head.txt"
}

for tree in base head; do
  "run_${case//-/_}" "$tree"
done
{
  echo "### ${titles[$case]}, merge base $(git -C "$tmp/base" rev-parse HEAD | cut -c1-12) vs head"
  for tree in base head; do
    sed "s/\$/ at $tree/" "$tmp/$case-failures-$tree.txt" 2>/dev/null || true
  done
  "diff_${case//-/_}"
} >> "$GITHUB_STEP_SUMMARY"
test ! -s "$tmp/$case-failures-head.txt"
