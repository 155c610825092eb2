#!/usr/bin/env bash
# Builds perfbench when its binary is missing or older than any source it
# is built from, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload hot-chain --seed 1 --seconds 25 --trace 0
#
# Plain `cargo run` is not used: wtpg-obs's build script watches
# `.git/HEAD`, and outside a git checkout that file is missing, so cargo
# would rebuild wtpg-obs and every crate above it (about a minute) on every
# run.
set -eu
target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/perfbench"
sources="crates vendor perfbench/src perfbench/Cargo.toml perfbench/Cargo.lock"
# shellcheck disable=SC2086
if [ ! -x "$bin" ] || [ -n "$(find $sources -newer "$bin" -print -quit 2>/dev/null)" ]; then
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
fi
exec "$bin" "$@"
