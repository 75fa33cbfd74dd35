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
  crates/core/src/probe.rs
  crates/core/src/phase.rs
  crates/protocol/src/bus.rs
)
if grep -rn "std::collections::HashMap" "${hot_paths[@]}" | grep -v "^[^:]*:[0-9]*: *//"; then
  echo "error: default-hasher std HashMap on a per-reference path (use DenseMap/FxHashMap)"
  exit 1
fi

echo "== panic-free fallible-surface gate =="
# Structured-error surfaces must not regress to unwrap()/expect(): the
# trace codec and the mapped-trace revalidation, the runners' mapping
# check, the atomic result writer, the sweep engine with its point table
# and crash-safety journal, and every binary report DsmError (exit codes
# 2 usage / 3 bad input / 4 internal) instead of panicking. Test modules
# (below #[cfg(test)]) are exempt.
fallible=(
  crates/trace/src/codec.rs
  crates/trace/src/mmap.rs
  crates/core/src/runner.rs
  crates/core/src/obs/mod.rs
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

echo "== documented binaries gate =="
# Every binary the docs, the verify skill and CI name must exist: a
# command line naming a deleted binary fails only when someone copies it.
shopt -s dotglob nullglob
docs=(README.md DESIGN.md */skills/verify/SKILL.md .github/workflows/ci.yml)
shopt -u dotglob nullglob
missing=0
while IFS=: read -r f line name; do
  if ! compgen -G "crates/*/src/bin/$name.rs" > /dev/null; then
    echo "$f:$line: names binary '$name', but no crates/*/src/bin/$name.rs exists"
    missing=1
  fi
done < <(grep -noE -- '--bin [A-Za-z0-9_-]+|target/(release|debug)/[A-Za-z0-9_-]+' "${docs[@]}" \
  | sed -E 's#^([^:]*:[0-9]+:).*[ /]#\1#')
if [[ $missing -ne 0 ]]; then
  echo "error: a doc or CI step names a binary that does not exist"
  exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check
# The A/B harness is a workspace of its own, which cargo fmt skips.
rustfmt --check --edition 2021 scripts/ab/src/main.rs

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

if [[ $fast -eq 0 ]]; then
  echo "== cargo build --release =="
  cargo build --release
fi

echo "== cargo test =="
cargo test -q

echo "verify: all checks passed"
