#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build, test, lint and stay
# formatted fully offline (zero-external-dependency policy — see
# DESIGN.md).
#
# Note: the workspace root is also a package, so a bare `cargo test`
# would only run the umbrella crate; always pass --workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
# The benchmark is its own workspace: build it too, so a public-API
# change that breaks it fails here rather than at benchmark time.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --workspace -q --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --all -- --check
# Every intra-doc link must resolve to a public item: a link left
# pointing at a deleted or private API fails tier 1.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# Determinism, hot-path and interprocedural static analysis (see
# DESIGN.md): any diagnostic not in the committed baseline — including
# stale simlint::allow comments and stale baseline entries — fails
# tier 1.
cargo run -q --release --offline -p simlint -- --deny-all --baseline .simlint-baseline.json

echo "tier1: OK"
