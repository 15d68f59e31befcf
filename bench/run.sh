#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the daemon under test and the
# benchmark from source into one target directory, then run one workload
# (`--workload NAME --seed N --seconds S --trace 0|1`) or a subcommand
# (`run`, `compare`; see bench/README.md).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/service ]; then
    echo "bench/run.sh: not inside a checkout of the repository (no crates/ next to bench/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p adaphet-service --bin adaphet-serve
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/adaphet-benchmark" "$@"
