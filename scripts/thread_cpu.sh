#!/usr/bin/env bash
# Where a benchmark workload's CPU goes, thread by thread.
#
#   scripts/thread_cpu.sh <workload> [seconds]      (default 20 s)
#
# Builds the offline benchmark binary (no registry needed), runs one
# untraced run of the workload, and reads every thread's CPU time from
# /proc/<pid>/task/*/{comm,stat} twice inside the measured phase: one
# second after the paced generator starts and one second before it stops.
# Prints, per thread name (threads sharing a name are summed), the CPU
# milliseconds between the two samples and the same as microseconds per
# operation offered in that interval — the scale of the benchmark's
# `cpu_us_per_op`, so the lines add up to it (less what short-lived
# threads spent before they exited).
#
# CPU times in /proc tick at 10 ms; over the default 18 s between samples
# that is 0.03 us/op on pipeline_tcp.
set -euo pipefail

workload="${1:?usage: thread_cpu.sh <workload> [seconds]}"
seconds="${2:-20}"
# Operations per second each workload offers: the paced generator
# (`system::SPECS` in crates/benchmark) plus the 200 probe appends.
case "$workload" in
  pipeline_tcp) rate=20200 ;;
  flstore_durable) rate=12200 ;;
  read_mix) rate=6200 ;;
  geo_2dc) rate=10200 ;;
  *) echo "unknown workload $workload" >&2; exit 2 ;;
esac
if (( seconds < 4 )); then
  echo "need at least 4 seconds to sample inside the measured phase" >&2
  exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
manifest="$root/crates/benchmark/offline/Cargo.toml"
target="${CARGO_TARGET_DIR:-$root/crates/benchmark/offline/target}"
CARGO_TARGET_DIR="$target" cargo build --release --quiet --offline \
  --manifest-path "$manifest" --bin benchmark

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# comm and utime+stime (clock ticks) of every thread of process $1.
sample() {
  local task comm stat
  for task in /proc/"$1"/task/*; do
    comm="$(cat "$task/comm" 2>/dev/null)" || continue
    stat="$(cat "$task/stat" 2>/dev/null)" || continue
    # Fields are counted after the parenthesised name, which may itself
    # contain spaces: utime and stime are the 12th and 13th from there.
    stat="${stat##*) }"
    set -- $stat
    printf '%s\t%s\n' "$comm" "$(( ${12} + ${13} ))"
  done
}

"$target/release/benchmark" --workload "$workload" --seed 1 \
  --seconds "$seconds" --trace 0 --work-dir "$work" > "$work/out" &
pid=$!

# The measured phase is the lifetime of the `bench-generator` thread.
for _ in $(seq 1 600); do
  if grep -qsx bench-generator /proc/"$pid"/task/*/comm; then break; fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "the benchmark exited before its measured phase:" >&2
    cat "$work/out" >&2
    exit 1
  fi
  sleep 0.1
done
sleep 1
sample "$pid" > "$work/first"; t1="$(date +%s.%N)"
sleep "$(( seconds - 3 ))"
sample "$pid" > "$work/second"; t2="$(date +%s.%N)"
wait "$pid"

tick_ms="$(( 1000 / $(getconf CLK_TCK) ))"
awk -F'\t' -v tick_ms="$tick_ms" -v t1="$t1" -v t2="$t2" -v rate="$rate" '
  FNR == NR { first[$1] += $2; next }
  { second[$1] += $2 }
  END {
    ops = (t2 - t1) * rate
    printf "%-18s %9s %9s\n", "thread", "ms", "us/op"; fflush()
    for (name in second) {
      ms = (second[name] - first[name]) * tick_ms
      total += ms
      if (ms > 0) printf "%-18s %9d %9.2f\n", name, ms, ms * 1000 / ops | "sort -k2,2nr"
    }
    close("sort -k2,2nr")
    printf "%-18s %9d %9.2f\n", "(all threads)", total, total * 1000 / ops
  }' "$work/first" "$work/second"
echo
echo "the run's own result:"
tail -n 1 "$work/out"
