#!/usr/bin/env bash
# Collision-rule lint: a frequency collision is decided in one place,
# mayCollide() in src/freq/spectrum.hpp (resonant and not two segments
# of one resonator). The force, the collision map, the hotspot
# analyzer and the legalizer's tau probe all call it, so no file in
# src/ other than freq/spectrum.hpp may call isResonant() directly.
#
# Run from the repository root: scripts/check_collision_rule.sh

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

report "isResonant( used in src/ outside freq/spectrum.hpp" \
    "$(grep -rn 'isResonant(' src | grep -v '^src/freq/spectrum\.hpp:')"

if [[ "$fail" -ne 0 ]]; then
    echo "collision-rule lint failed: call mayCollide() from freq/spectrum.hpp" >&2
    exit 1
fi
echo "collision-rule lint OK"
