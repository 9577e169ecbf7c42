#!/bin/sh
# AddressSanitizer verify configuration: proves the global stats
# registry (and the tools driving it) leak- and race-clean.  Builds the
# stats/CLI test targets with -DQAC_SANITIZE=address and runs the
# stats-labelled tests plus the CLI smoke suite under ASan.  The
# packed-labelled suite rides along: the multi-spin kernel's delta
# planes and masked vector stores (DESIGN.md §13) are exactly the kind
# of indexed hot-loop code ASan pays for.  So does the sat-labelled
# suite: the DIMACS parser and clause-gadget lowering are classic
# indexed-buffer parsing code, and the sim-labelled suite: the event
# simulator's fanout/pending index arrays and the VCD writer are more
# of the same (DESIGN.md §15).  The embed-labelled suite covers the
# minor embedder's per-try search arena: epoch-stamped labels, CSR
# adjacency and reused heaps indexed by qubit id (DESIGN.md §16).  The
# kernel-labelled suites run the packed chain pass over C16-embedded
# models on every engine rung (its CSR chain arrays index the lane
# planes).  The artifact- and service-labelled suites hold the
# decoders of hostile bytes: .qo objects, cache entries and QSVC
# frames, whose decoded counts bound every reservation.  The build is
# bounded to one job per CPU: an unbounded -j on the whole tree can
# exhaust a small host's memory.
set -eu

cd "$(dirname "$0")/.."
BUILD=build-asan

cmake -B "$BUILD" -S . -DQAC_SANITIZE=address >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target stats_test cli_test \
    packed_test kernel_test dimacs_test sim_test embed_test artifact_test \
    service_test qacc qma qsat
cd "$BUILD"
ctest -L 'stats|packed|kernel|sat|sim|embed|artifact|service' \
    --output-on-failure
ctest -R cli_test --output-on-failure
echo "asan verify ok"
