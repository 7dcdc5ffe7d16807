#!/usr/bin/env bash
# Builds the benchmark and runs it. With no arguments: every workload,
# untraced and traced, each in a fresh process (`all`). Arguments are passed
# through, so `run.sh all --quick`, `run.sh --workload lone_exact --seed 3
# --seconds 12 --trace 0` and `run.sh compare a.json b.json` work too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
    set -- all
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
