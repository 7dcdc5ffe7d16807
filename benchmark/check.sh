#!/usr/bin/env bash
# The A/A check: runs `all` twice on the same code — the default seed, then a
# seed never used while the benchmark was tuned — and fails if `compare`
# finds a regression, or a pair it cannot resolve, in either direction.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
first="$here/out/check-a.json"
second="$here/out/check-b.json"
"$here/run.sh" all --seed 1 --out "$first" "$@"
"$here/run.sh" all --seed 7919 --out "$second" "$@"
"$here/run.sh" compare "$first" "$second"
"$here/run.sh" compare "$second" "$first"
echo "A/A check passed: two runs of the same code agree within every bound"
