#!/usr/bin/env bash
# Times the simulator at <rev> (the parent) against the working tree (the
# change): scripts/ab/ links both commits' dsm-core, dsm-trace and
# dsm-types into one program and alternates replays of the same traces.
#
#   scripts/ab.sh <rev>      # scripts/ab.sh HEAD on a clean tree: A/A
#
# Exits 1 when the change is slower, 2 when the commits' traces differ,
# and 0 otherwise. Everything it builds stays under target/ab/.

set -euo pipefail
cd "$(dirname "$0")/.."
[[ $# -eq 1 ]] || { echo "usage: scripts/ab.sh <rev>" >&2; exit 2; }
rev=$(git rev-parse --verify "$1^{commit}")

base=target/ab/base
rm -rf "$base"
mkdir -p "$base"
# -m: git archive stamps files with the commit's time, which could look
# older than the last build of another parent and let Cargo reuse it.
git archive "$rev" | tar -xm -C "$base"
# Cargo refuses two packages of one name and version in one build.
sed -i '/^\[workspace\.package\]/,/^\[/ s/^version = "\(.*\)"/version = "\1-ab"/' "$base/Cargo.toml"

echo "ab: parent $(git rev-parse --short "$rev"), change: the working tree" >&2
export CARGO_TARGET_DIR="$PWD/target/ab/build"
cargo test --offline -q --manifest-path scripts/ab/Cargo.toml
exec cargo run --release --offline -q --manifest-path scripts/ab/Cargo.toml
