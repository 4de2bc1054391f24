# LLEE statistics at the CLI boundary: usage `sh llee_stats.sh LLVA_RUN
# PROGRAM`. For each llee engine, start from an empty cache directory and
# run a cold then a warm --peephole launch, then a cold then a warm
# --certify, printing each run's output, --stats lines and exit code.
# The wall-clock "... time: ... ms" lines are dropped: every other line
# is deterministic.
run=$1
prog=$2
for engine in llee-x86 llee-sparc; do
  dir=.statcache-$engine
  rm -rf "$dir"
  for mode in --peephole --peephole --certify --certify; do
    echo "== $engine $mode"
    "$run" "$prog" --engine "$engine" "$mode" --cache "$dir" --stats 2>&1
    echo "exit: $?"
  done
  rm -rf "$dir"
done | grep -v ' time: .* ms$'
