#!/usr/bin/env bash
# Doc lint: the --set knob surface and the service docs must stay in
# sync with the code.
#
#  1. Every key in kKnownSetKeys (src/pipeline/overrides.cpp, the
#     single source of truth for --set / request "set" keys) must
#     appear in BUILDING.md's knob table, and every key of that table
#     must be in kKnownSetKeys (no stale rows for deleted knobs).
#  2. The service documentation set must exist and be linked from
#     BUILDING.md.
#  3. Every bench_<x> named in BUILDING.md, docs/*.md or the nightly
#     workflow must have its source, bench/<x>.cpp.
#
# Run from the repository root: scripts/check_knob_docs.sh

set -u
cd "$(dirname "$0")/.."

fail=0

overrides=src/pipeline/overrides.cpp
building=BUILDING.md

if [[ ! -f "$overrides" ]]; then
    echo "FAIL: $overrides not found" >&2
    exit 1
fi

# Extract the quoted keys of the kKnownSetKeys initializer.
keys=$(awk '/kKnownSetKeys\[\] = \{/,/^\};/' "$overrides" |
    sed -n 's/^[[:space:]]*"\([^"]*\)",*$/\1/p')
if [[ -z "$keys" ]]; then
    echo "FAIL: could not extract kKnownSetKeys from $overrides" >&2
    exit 1
fi

count=0
while IFS= read -r key; do
    count=$((count + 1))
    if ! grep -q -F "\`$key\`" "$building"; then
        echo "FAIL: --set key '$key' is not documented in $building" >&2
        fail=1
    fi
done <<<"$keys"
echo "checked $count --set keys against $building"

# The reverse direction: the first-column key of every row in the
# "Flow parameter knobs" table must still be a known --set key.
rows=$(awk '/^## Flow parameter knobs/ {on = 1; next} /^## / {on = 0}
            on' "$building" |
    sed -n 's/^| `\([^`]*\)` |.*/\1/p')
if [[ -z "$rows" ]]; then
    echo "FAIL: could not extract the --set table from $building" >&2
    exit 1
fi
count=0
while IFS= read -r row; do
    count=$((count + 1))
    if ! grep -q -x -F "$row" <<<"$keys"; then
        echo "FAIL: $building documents '$row', which is not in kKnownSetKeys" >&2
        fail=1
    fi
done <<<"$rows"
echo "checked $count $building knob rows against kKnownSetKeys"

# Every qplacer_server CLI flag must be documented in BUILDING.md.
server_main=tools/qplacer_server.cpp
if [[ ! -f "$server_main" ]]; then
    echo "FAIL: $server_main not found" >&2
    exit 1
fi
flags=$(sed -n 's/.*arg == "\(--[a-z-]*\)".*/\1/p' "$server_main" |
    grep -v -e '^--help$' | sort -u)
if [[ -z "$flags" ]]; then
    echo "FAIL: could not extract server flags from $server_main" >&2
    exit 1
fi
count=0
while IFS= read -r flag; do
    count=$((count + 1))
    # Accept both bare `--flag` and `--flag ARG` spellings.
    if ! grep -q -F -e "\`$flag\`" -e "\`$flag " "$building"; then
        echo "FAIL: server flag '$flag' is not documented in $building" >&2
        fail=1
    fi
done <<<"$flags"
echo "checked $count server flags against $building"

# The documentation set itself, each linked from BUILDING.md.
for doc in docs/ARCHITECTURE.md docs/PROTOCOL.md docs/REPORT_SCHEMA.md; do
    if [[ ! -f "$doc" ]]; then
        echo "FAIL: $doc is missing" >&2
        fail=1
    elif ! grep -q -F "$doc" "$building"; then
        echo "FAIL: $doc is not linked from $building" >&2
        fail=1
    fi
done

# Every bench_<x> executable the docs or the nightly workflow name must
# still have its source, bench/<x>.cpp (no dangling references to a
# deleted driver).
nightly=.github/workflows/nightly.yml
count=0
for named in $(grep -o -h -E 'bench_[a-z0-9_]+' "$building" docs/*.md "$nightly" |
               sort -u); do
    count=$((count + 1))
    driver=${named#bench_}
    if [[ ! -f "bench/$driver.cpp" ]]; then
        echo "FAIL: '$named' is named in the docs or $nightly, but bench/$driver.cpp does not exist" >&2
        fail=1
    fi
done
echo "checked $count bench_<x> names against bench/"

if [[ "$fail" -ne 0 ]]; then
    echo "doc lint failed" >&2
    exit 1
fi
echo "doc lint OK"
