#!/bin/sh
# ThreadSanitizer verify configuration: proves the exec scheduler and
# every parallelized sampler race-clean.  Builds the parallel/anneal
# test targets with -DQAC_SANITIZE=thread and runs the parallel- and
# anneal-labelled suites under TSan, plus the packed suite — packed
# passes are scheduled across threads like scalar reads, so the lane
# state must stay thread-confined.  The sim suite rides along for the
# differential oracle: diffCheck drives the exact solver's sharded
# enumeration, so its result merging runs under TSan too.  The embed
# suite races embedder tries across workers: each try owns its search
# arena, and no two concurrent tries may share one.  The kernel suite
# runs packed chainflip passes at threads 1 and 4.  The build is
# bounded to one job per CPU.
set -eu

cd "$(dirname "$0")/.."
BUILD=build-tsan

cmake -B "$BUILD" -S . -DQAC_SANITIZE=thread >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target parallel_test anneal_test \
    packed_test kernel_test dimacs_test sim_test embed_test
cd "$BUILD"
ctest -L 'parallel|anneal|packed|kernel|sat|sim|embed' --output-on-failure
echo "tsan verify ok"
