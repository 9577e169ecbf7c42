#!/bin/sh
# Check that the ISA-flagged packed sweep engines leak no code.
#
# Usage: check_engine_symbols.sh <nm> <libqac_anneal.a>
#
# packed_sweep_avx2.cpp and packed_sweep_avx512.cpp are compiled with
# -mavx2 / -mavx512f.  Any global they define besides their entry
# points — typically a weak copy of some header's inline function, as
# an -O0 build emits for every call it does not inline — may be the one
# copy the linker keeps for the portable callers too, which would then
# fault on a host without that ISA.  So each engine object must define
# exactly its three entry points, all of type T, and nothing else
# global, in every build configuration (DESIGN.md §13).  The one
# exception is DW.ref.__gxx_personality_v0, a data word pointing at the
# C++ unwinder that any object with unwind landing pads carries (the
# sanitizer builds do): it holds an address, not ISA-compiled code.
set -eu

NM=$1
LIB=$2
status=0
for isa in Avx2 Avx512; do
    obj=packed_sweep_$(echo "$isa" | tr 'A-Z' 'a-z').cpp.o
    defs=$("$NM" -A -C -g --defined-only "$LIB" | grep ":$obj:" |
           grep -v ' DW\.ref\.__gxx_personality_v0$' || true)
    bad=$(printf '%s\n' "$defs" | awk -v isa="$isa" '
        NF == 0 { next }
        {
            name = $0
            sub(/^[^ ]* [^ ]* /, "", name)
            ok = $2 == "T" && name ~ ("^qac::anneal::(packedSweep" isa \
                 "|packedSweep" isa "Compiled|packedChainPass" isa ")\\(")
            if (!ok)
                print "  " $2 " " name
        }')
    n=$(printf '%s\n' "$defs" | grep -c . || true)
    if [ -n "$bad" ] || [ "$n" -ne 3 ]; then
        echo "FAIL: $obj defines $n globals, not just its 3 entry points" >&2
        [ -n "$bad" ] && printf '%s\n' "$bad" >&2
        status=1
    else
        echo "ok: $obj defines only its 3 entry points"
    fi
done
exit $status
