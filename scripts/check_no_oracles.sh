#!/usr/bin/env bash
# Oracle lint: libqplacer ships one production engine per stage. The
# reference implementations the equivalence suites compare against
# live in tests/oracles/, and nothing in src/ may bring them back:
#
#  1. no `enum class ...Engine` selector is declared in src/;
#  2. src/ never names `Unplanned` (the plan-free spectral path);
#  3. src/ includes nothing from tests/ (tests/oracles/ included).
#
# Run from the repository root: scripts/check_no_oracles.sh

set -u
cd "$(dirname "$0")/.."

fail=0

report() {
    local what=$1 hits=$2
    if [[ -n "$hits" ]]; then
        echo "FAIL: $what:" >&2
        echo "$hits" >&2
        fail=1
    fi
}

report "engine selector declared in src/" \
    "$(grep -rnE 'enum[[:space:]]+class[[:space:]]+[A-Za-z_0-9]*Engine\b' src)"
report "src/ names the plan-free 'Unplanned' path" \
    "$(grep -rn 'Unplanned' src)"
report "src/ includes a file from tests/" \
    "$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]([./]*tests/|oracles/)' src)"

if [[ "$fail" -ne 0 ]]; then
    echo "oracle lint failed: reference engines belong in tests/oracles/" >&2
    exit 1
fi
echo "oracle lint OK"
