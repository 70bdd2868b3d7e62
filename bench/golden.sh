#!/bin/sh
# Prints the paper artifacts (Table 1, Figures 10/11, the 197.parser
# detection) at scale 5 with the measured fields masked: Table 1's time_s
# and memMB columns and the total-time line. Everything else is
# deterministic, and CI diffs it against bench/golden_scale5.txt. Run it
# from the repository root. The bench runs in a temporary directory, so
# the BENCH_usher.json it writes never replaces one in the working
# directory. After a change that is meant to move a table, regenerate the
# golden file with
#   sh bench/golden.sh > bench/golden_scale5.txt
set -e
dune build bench/main.exe
exe="$(pwd)/_build/default/bench/main.exe"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$(cd "$tmp" && "$exe" scale=5 table1 fig10 fig11 detect)
printf '%s\n' "$out" | sed -E \
  -e 's/^([^ ]+ +[0-9.]+) +[0-9.]+ +[0-9.]+ \|/\1   time    mem |/' \
  -e 's/^average +[0-9.]+ +[0-9.]+ \|/average                time    mem |/' \
  -e 's/^\(total bench time: .*\)$/(total bench time: masked)/'
