#!/bin/sh
# ctest check: concurrent real-data post-hoc runs keep their datasets
# apart. Starts two deisa_scenario runs of one posthoc-new config at once,
# several times, with TMPDIR pointed at a fresh directory. Both runs must
# exit 0 and print the same singular values, and no deisa-posthoc-*
# directory may survive them. Run as
#   sh check_posthoc_scratch.sh <deisa_scenario> <work dir>
set -u
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work/tmp" || exit 1
printf 'pipeline: posthoc-new\nranks: 4\nworkers: 2\nblock_kib: 256\ntimesteps: 6\nruns: 1\nreal_data: true\n' \
  > "$work/ph.yaml"
fail() {
  echo "check_posthoc_scratch: $*" >&2
  exit 1
}
for pair in 1 2 3 4 5 6; do
  TMPDIR="$work/tmp" "$bin" "$work/ph.yaml" > "$work/a.out" 2>&1 &
  a=$!
  TMPDIR="$work/tmp" "$bin" "$work/ph.yaml" > "$work/b.out" 2>&1 &
  b=$!
  wait "$a" || fail "pair $pair: first run exited $?: $(cat "$work/a.out")"
  wait "$b" || fail "pair $pair: second run exited $?: $(cat "$work/b.out")"
  sv_a=$(grep "fitted singular values" "$work/a.out") ||
    fail "pair $pair: first run printed no singular values"
  sv_b=$(grep "fitted singular values" "$work/b.out") ||
    fail "pair $pair: second run printed no singular values"
  [ "$sv_a" = "$sv_b" ] ||
    fail "pair $pair: singular values differ: '$sv_a' vs '$sv_b'"
  left=$(ls "$work/tmp")
  [ -z "$left" ] || fail "pair $pair left behind: $left"
done
echo "check_posthoc_scratch: 6 concurrent pairs agree and leave no files"
