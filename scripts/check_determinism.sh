#!/usr/bin/env bash
# Determinism check on the real CLI surface: mining output must not depend
# on the scoring thread count or the kernel ISA. Runs all six examples
# (quickstart, crime_analysis, csv_mining, iterative_mammals,
# socioeconomics_case_study, water_quality_case_study) and a small mammals
# session (multi-group model at dy = 124 from iteration 2 on) three times
# each: with default settings, with SISD_THREADS=4 and with
# SISD_KERNELS=scalar. Each stdout and the saved session snapshot must
# match the default run byte for byte; lines that report wall-clock time
# are dropped before the comparison. Each variant also restores its
# mammals snapshot with `sisd_cli resume` and saves it again without
# mining: the re-saved file must equal the original byte for byte (the
# inline dataset encoder and decoder round-trip exactly).
#
# Usage: scripts/check_determinism.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="$(cd "${1:-build}" && pwd)"
examples="quickstart crime_analysis csv_mining iterative_mammals
socioeconomics_case_study water_quality_case_study"
cli="$build_dir/tools/sisd_cli"
for bin in $(printf "$build_dir/examples/%s " $examples) "$cli"; do
  if [ ! -x "$bin" ]; then
    echo "check_determinism: $bin not built" >&2
    exit 1
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

timing='wall-clock|elapsed'

# run <variant> [VAR=value]: every example + one mammals run into
# $work/<variant>.
run() {
  local variant=$1
  shift
  local dir="$work/$variant"
  mkdir -p "$dir"
  (
    cd "$dir"
    for example in $examples; do
      env -u SISD_THREADS -u SISD_KERNELS "$@" \
        "$build_dir/examples/$example" | grep -Ev "$timing" > "$example.txt"
    done
    env -u SISD_THREADS -u SISD_KERNELS "$@" "$cli" mine --scenario mammals \
      --iterations 2 --beam-width 10 --max-depth 2 \
      --session-save mammals.json | grep -Ev "$timing" > mammals.txt
    env -u SISD_THREADS -u SISD_KERNELS "$@" "$cli" resume \
      --session mammals.json --iterations 0 --session-save resaved.json \
      > /dev/null
  )
}

run default
run threads4 SISD_THREADS=4
run scalar SISD_KERNELS=scalar

status=0
for variant in default threads4 scalar; do
  if ! cmp -s "$work/$variant/mammals.json" "$work/$variant/resaved.json"; then
    echo "check_determinism: $variant mammals snapshot changes on" \
         "resume + re-save" >&2
    status=1
  fi
done
for variant in threads4 scalar; do
  for file in $(printf "%s.txt " $examples) mammals.txt mammals.json; do
    if ! cmp -s "$work/default/$file" "$work/$variant/$file"; then
      echo "check_determinism: $file differs between default and $variant" >&2
      diff "$work/default/$file" "$work/$variant/$file" | head -20 >&2 || true
      status=1
    fi
  done
done
if [ "$status" -eq 0 ]; then
  echo "check_determinism: all six examples and mammals output identical" \
       "across default, SISD_THREADS=4 and SISD_KERNELS=scalar; mammals" \
       "snapshots re-save byte-identically"
fi
exit "$status"
