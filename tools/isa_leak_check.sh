#!/usr/bin/env bash
# Asserts that the ISA-flagged kernel objects (built with -mavx2 / -mavx512*
# and -mpopcnt) define no weak or COMDAT symbol.
#
# Such a symbol would be an out-of-line copy of a shared inline helper
# (say bits::find_escaped) compiled with AVX or POPCNT instructions. The
# linker keeps one copy of each inline function, and may keep that one for
# the scalar-tier callers too, which then fault on a CPU without the
# extension. Helpers must be fully inlined there, or have internal linkage.
#
# Usage: isa_leak_check.sh <object>...   (arguments may also be ;-lists,
# as $<TARGET_OBJECTS:...> expands)
set -u

if [ "$#" -eq 0 ]; then
    echo "usage: isa_leak_check.sh <object>..." >&2
    exit 2
fi

fail=0
checked=0
for arg in "$@"; do
    IFS=';' read -r -a objects <<< "$arg"
    for object in "${objects[@]}"; do
        [ -n "$object" ] || continue
        if ! symbols="$(nm --defined-only "$object")"; then
            echo "FAIL: nm could not read $object" >&2
            fail=1
            continue
        fi
        # W/V: weak function/object (COMDAT inline functions and their
        # static locals are emitted weak); u: GNU unique (inline statics).
        leaked="$(printf '%s\n' "$symbols" | awk '$2 ~ /^[WVu]$/')"
        if [ -n "$leaked" ]; then
            echo "FAIL: $object defines weak/COMDAT symbols:" >&2
            printf '%s\n' "$leaked" | c++filt >&2
            fail=1
        else
            echo "ok: $(basename "$object")"
        fi
        checked=$((checked + 1))
    done
done

if [ "$checked" -eq 0 ]; then
    echo "FAIL: no object files given" >&2
    exit 1
fi
exit "$fail"
