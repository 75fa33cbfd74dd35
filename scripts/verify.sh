#!/usr/bin/env bash
# Full verification gate: what CI (and the driver) runs.
#
#   scripts/verify.sh          # tier-1 + lints
#   scripts/verify.sh --fast   # skip the release build (debug tests + lints)
#
# Everything must pass offline — the workspace has no external
# dependencies by design.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== hot-path hash gate =="
# The per-reference simulation path must stay on dsm_types::DenseMap /
# FxHashMap: a default-hasher std HashMap re-introduced here would undo
# the hot-path overhaul (SipHash + per-lookup overhead) without failing
# any functional test. Test modules are exempt.
hot_paths=(
  crates/directory/src/full_map.rs
  crates/directory/src/limited.rs
  crates/directory/src/placement.rs
  crates/directory/src/rnuma.rs
  crates/core/src/system.rs
  crates/core/src/nc
  crates/core/src/page_cache
  crates/core/src/obs/mod.rs
)
if grep -rn "std::collections::HashMap" "${hot_paths[@]}" | grep -v "^[^:]*:[0-9]*: *//"; then
  echo "error: default-hasher std HashMap on a per-reference path (use DenseMap/FxHashMap)"
  exit 1
fi

echo "== mailbox hot-path allocation gate =="
# The sharded-replay mailbox moves one message per metrics chunk; its
# send/receive path must stay allocation-free (slots are preallocated at
# channel construction). A Vec::push, a HashMap, or a String on that
# path would put an allocator call inside every cross-thread event.
# Test modules (below #[cfg(test)]) are exempt.
if awk '/#\[cfg\(test\)\]/{exit} {print "crates/core/src/shard/mailbox.rs:"FNR": "$0}' \
    crates/core/src/shard/mailbox.rs \
    | grep -E '\.push\(|\.to_vec\(|HashMap|String::|vec!|Vec::new|\.clone\('; then
  echo "error: allocation on the mailbox send/receive path (preallocate in channel())"
  exit 1
fi

echo "== panic-free fallible-surface gate =="
# Structured-error surfaces must not regress to unwrap()/expect(): the
# trace codec, the sweep engine with its point table and crash-safety
# journal, and every binary report DsmError (exit codes 2 usage / 3 bad
# input / 4 internal) instead of panicking. Test modules (below
# #[cfg(test)]) are exempt.
fallible=(
  crates/trace/src/codec.rs
  crates/bench/src/sweep.rs
  crates/bench/src/journal.rs
  crates/bench/src/points.rs
)
while IFS= read -r f; do fallible+=("$f"); done < <(find crates -path '*/src/bin/*.rs' | sort)
bad=0
for f in "${fallible[@]}"; do
  if awk -v f="$f" '/#\[cfg\(test\)\]/{exit} {print f":"FNR": "$0}' "$f" \
      | grep -E '\.unwrap\(\)|\.expect\('; then
    bad=1
  fi
done
if [[ $bad -ne 0 ]]; then
  echo "error: unwrap()/expect() on a structured-error surface (return DsmError instead)"
  exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  echo "== cargo build --release =="
  cargo build --release
fi

echo "== cargo test =="
cargo test -q

echo "verify: all checks passed"
