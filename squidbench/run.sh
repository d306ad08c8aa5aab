#!/usr/bin/env bash
# Build squid-serve (from the repository's own workspace) and this
# benchmark, then run it. Arguments pass through, e.g.:
#   bash squidbench/run.sh --workload refine --seed 1 --seconds 35 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline -p squid-serve --bin squid-serve >&2
cargo build --release --quiet --offline --manifest-path squidbench/Cargo.toml >&2
exec "$target/release/squidbench" --server-bin "$target/release/squid-serve" \
    --work "$target/squidbench" "$@"
