#!/usr/bin/env bash
# Asserts descend-cli's documented exit-code taxonomy:
#   0 ok, 1 internal error, 2 usage, 3 malformed input,
#   4 limit/deadline, 5 file I/O.
# Usage: cli_exit_codes.sh <path-to-descend-cli>
set -u

CLI="${1:?usage: cli_exit_codes.sh <path-to-descend-cli>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0
check() {
    local want="$1"; shift
    local label="$1"; shift
    "$@" >/dev/null 2>&1
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $label: expected exit $want, got $got ($*)" >&2
        fail=1
    else
        echo "ok: $label -> $got"
    fi
}

printf '{"a": {"b": 1}}' > "$WORK/ok.json"
printf '{"a": [{"b": 1}, {"c": 2}, {"b": 3}]}' > "$WORK/filter.json"
printf '{"a": {"b": 1}' > "$WORK/truncated.json"
python3 -c "print('['*2000 + ']'*2000)" > "$WORK/deep.json" 2>/dev/null \
    || { printf '%0.s[' $(seq 2000); printf '%0.s]' $(seq 2000); } > "$WORK/deep.json"
printf '{"id":1}\n{"id":2}\n' > "$WORK/stream.ndjson"
printf '{"id":1}\n{"id": \n{"id":3}\n' > "$WORK/broken.ndjson"

# 0: success, single-document and NDJSON.
check 0 "well-formed document"        "$CLI" '$..b' "$WORK/ok.json"
check 0 "clean ndjson stream"         "$CLI" --ndjson '$..id' "$WORK/stream.ndjson"
check 0 "retry-scalar clean stream"   "$CLI" --ndjson --retry-scalar '$..id' "$WORK/stream.ndjson"
check 0 "generous deadline"           "$CLI" --deadline-ms 60000 '$..b' "$WORK/ok.json"
check 0 "projected slices"            "$CLI" --project slices '$..b' "$WORK/ok.json"
check 0 "projected ndjson stream"     "$CLI" --ndjson --project ndjson '$..id' "$WORK/stream.ndjson"

# 2: usage errors (bad flags, bad query, conflicting policies).
check 2 "unknown flag"                "$CLI" --no-such-flag '$..b' "$WORK/ok.json"
check 2 "missing query"               "$CLI"
check 2 "malformed query"             "$CLI" '$.[' "$WORK/ok.json"
check 2 "conflicting error policies"  "$CLI" --ndjson --fail-fast --retry-scalar '$..id' "$WORK/stream.ndjson"
check 2 "projection vs count"         "$CLI" --project slices --count '$..b' "$WORK/ok.json"
check 2 "unknown projection mode"     "$CLI" --project verbose '$..b' "$WORK/ok.json"

# 2: selector forms the grammar deliberately rejects (negative indices,
# stepped slices, descendant slices/unions/filters, non-final filters).
check 2 "negative index"              "$CLI" '$[-1]' "$WORK/ok.json"
check 2 "fractional index"            "$CLI" '$[1.5]' "$WORK/ok.json"
check 2 "negative slice bound"        "$CLI" '$[1:-1]' "$WORK/ok.json"
check 2 "stepped slice"               "$CLI" '$[1:4:2]' "$WORK/ok.json"
check 2 "descendant slice"            "$CLI" '$..[1:2]' "$WORK/ok.json"
check 2 "descendant union"            "$CLI" "\$..['a','b']" "$WORK/ok.json"
check 2 "descendant filter"           "$CLI" '$..[?(@.x)]' "$WORK/ok.json"
check 2 "non-final filter"            "$CLI" '$.a[?(@.x)].y' "$WORK/ok.json"
check 2 "malformed filter literal"    "$CLI" '$[?(@.x==01)]' "$WORK/ok.json"
check 2 "single-equals filter"        "$CLI" '$[?(@.x=1)]' "$WORK/ok.json"

# 2: the fused backend flag is gone; every spelling is an unknown option.
check 2 "removed --fused option"      "$CLI" --fused=product --count --query '$.a' --query '$..b' "$WORK/ok.json"
check 2 "removed --fused flag"        "$CLI" --fused auto --count --query '$.a' --query '$..b' "$WORK/ok.json"

# Fused sets print per-query counts equal to single-query runs.
same_counts() {
    local label="$1" doc="$2"; shift 2
    local fused singles="" q i=0 args=()
    for q in "$@"; do args+=(--query "$q"); done
    fused="$("$CLI" --count "${args[@]}" "$doc" 2>&1)"
    local rc=$?
    for q in "$@"; do
        singles+="query $i: $("$CLI" --count "$q" "$doc" 2>&1)"$'\n'
        i=$((i + 1))
    done
    if [ "$rc" -ne 0 ] || [ "$fused" != "${singles%$'\n'}" ]; then
        echo "FAIL: $label: fused (exit $rc) printed '$fused', single runs '${singles%$'\n'}'" >&2
        fail=1
    else
        echo "ok: $label"
    fi
}

# 0: filters compile into the product automaton.
check 0 "filter set"                  "$CLI" --count --query '$.a[?(@.b)]' --query '$..b' "$WORK/filter.json"
same_counts "filter set counts == single runs" "$WORK/filter.json" '$.a[?(@.b)]' '$..b'

# 0: a set past the product's 2^15-state cap (wildcards after descendants
# blow up subset construction) runs split into parts.
STARS='.*.*.*.*.*.*.*.*.*.*'
# Eleven objects under "a" and under "b": both queries match leaves.
printf '{"a":{"a":{"a":{"a":{"a":{"a":{"a":{"a":{"a":{"a":{"a":{"a":[1,2]}}}}}}}}}}},' > "$WORK/nested.json"
printf '"b":{"b":{"c":{"c":{"c":{"c":{"c":{"c":{"c":{"c":{"c":{"c":[3,4]}}}}}}}}}}}}' >> "$WORK/nested.json"
check 0 "state cap set"               "$CLI" --count --query "\$..a$STARS" --query "\$..b$STARS" "$WORK/ok.json"
same_counts "state cap counts == single runs" "$WORK/nested.json" "\$..a$STARS" "\$..b$STARS"

# 4: a single query past the DFA's state limit cannot be split.
check 4 "single query past DFA cap"   "$CLI" --count "\$..a$STARS.*.*.*" "$WORK/ok.json"
check 4 "same query in a fused set"   "$CLI" --count --query "\$..a$STARS.*.*.*" --query '$.a' "$WORK/ok.json"

# 3: malformed input.
check 3 "truncated document"          "$CLI" '$..b' "$WORK/truncated.json"
check 3 "broken ndjson record"        "$CLI" --ndjson '$..id' "$WORK/broken.ndjson"

# 4: resource limits and governance stops. ($.* has no head-skip label, so
# the depth limit is enforced on the full-document pipeline.)
check 4 "depth limit"                 "$CLI" '$.*' "$WORK/deep.json"
check 4 "depth limit (dom engine)"    "$CLI" --engine dom '$.*' "$WORK/deep.json"

# 5: file I/O.
check 5 "missing file"                "$CLI" '$..b' "$WORK/does-not-exist.json"

# Error messages for stream records carry absolute byte offsets.
msg="$("$CLI" --ndjson '$..id' "$WORK/broken.ndjson" 2>&1 >/dev/null)"
case "$msg" in
    *"record 1 at byte"*) echo "ok: absolute stream error position" ;;
    *) echo "FAIL: stream error lacks absolute position: $msg" >&2; fail=1 ;;
esac

# NDJSON stdout, exactly: a single query prints "record R: ", a set
# prints "query Q record R: " (records ascending, queries ascending within
# a record), and the summary lines are shared.
same_stdout() {
    local label="$1" want="$2"; shift 2
    local got
    got="$("$@" 2>/dev/null)"
    if [ "$got" != "$want" ]; then
        echo "FAIL: $label: expected '$want', got '$got' ($*)" >&2
        fail=1
    else
        echo "ok: $label"
    fi
}
printf '{"id":1,"a":{"id":[2, 3]}}\n{"id":"x"}\n' > "$WORK/two.ndjson"
SET=(--query '$..id' --query '$.id')
SINGLE_VALUES=$'record 0: 1\nrecord 0: [2, 3]\nrecord 1: "x"'
SET_VALUES=$'query 0 record 0: 1\nquery 0 record 0: [2, 3]\nquery 1 record 0: 1\nquery 0 record 1: "x"\nquery 1 record 1: "x"'
same_stdout "ndjson values"           "$SINGLE_VALUES" "$CLI" --ndjson '$..id' "$WORK/two.ndjson"
same_stdout "ndjson set values"       "$SET_VALUES" "$CLI" --ndjson "${SET[@]}" "$WORK/two.ndjson"
same_stdout "ndjson offsets" $'record 0: 6\nrecord 0: 18\nrecord 1: 6' \
    "$CLI" --ndjson --offsets '$..id' "$WORK/two.ndjson"
same_stdout "ndjson set offsets" \
    $'query 0 record 0: 6\nquery 0 record 0: 18\nquery 1 record 0: 6\nquery 0 record 1: 6\nquery 1 record 1: 6' \
    "$CLI" --ndjson --offsets "${SET[@]}" "$WORK/two.ndjson"
same_stdout "ndjson slices"           "$SINGLE_VALUES" "$CLI" --ndjson --project=slices '$..id' "$WORK/two.ndjson"
same_stdout "ndjson set slices"       "$SET_VALUES" "$CLI" --ndjson --project=slices "${SET[@]}" "$WORK/two.ndjson"
same_stdout "ndjson limit" $'record 0: 1\nrecord 0: [2, 3]\n... (1 more)' \
    "$CLI" --ndjson --limit 2 '$..id' "$WORK/two.ndjson"
same_stdout "ndjson set limit" $'query 0 record 0: 1\nquery 0 record 0: [2, 3]\n... (3 more)' \
    "$CLI" --ndjson --limit 2 "${SET[@]}" "$WORK/two.ndjson"
same_stdout "ndjson count"            "3" "$CLI" --ndjson --count '$..id' "$WORK/two.ndjson"
same_stdout "ndjson set count"        "5" "$CLI" --ndjson --count "${SET[@]}" "$WORK/two.ndjson"

exit $fail
