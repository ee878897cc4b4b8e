#!/usr/bin/env bash
# The unit tests of chariots-flstore and chariots-core (their own
# `#[cfg(test)]` modules, and crates/core/tests), built without a registry
# against the stand-ins under crates/benchmark/offline/ and the seeded
# proptest stand-in in scripts/offline-tests/proptest.
#
#   scripts/unit_offline.sh                  both crates
#   scripts/unit_offline.sh flstore wal::    one crate, tests matching a filter
#   PROPTEST_SEED=7 scripts/unit_offline.sh  another stream of generated cases
#
# Build outputs go to $CARGO_TARGET_DIR, by default outside the repository.
set -euo pipefail

cd "$(dirname "$0")/offline-tests"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-${TMPDIR:-/tmp}/chariots-offline-tests-target}"

# Fails at every commit since PR 22 for a reason of its own (ROADMAP item 2:
# what a deposed primary's longer log may overwrite). It is kept out of the
# run that decides the exit status and run on its own afterwards, so that how
# it fails — or that it no longer does — is printed every time; take it out
# of here with the fix.
known_failing=replication::tests::repair_sources_from_the_primary_not_a_longer_deposed_log

crates=(flstore core)
if [ $# -gt 0 ]; then
  crates=("$1")
  shift
fi
for crate in "${crates[@]}"; do
  echo "==> chariots-$crate unit tests (offline)"
  cargo test --offline -p "chariots-$crate" -- --skip "$known_failing" "$@"
done

if [ $# -eq 0 ] && [[ " ${crates[*]} " == *" flstore "* ]]; then
  echo "==> known failing: $known_failing"
  if cargo test --offline -p chariots-flstore --lib -- --exact "$known_failing"; then
    echo "==> it PASSES now: take it out of scripts/unit_offline.sh and SKILL.md's list"
  else
    echo "==> still fails as printed above; tolerated, the only failure that is"
  fi
fi
