/**
 * @file
 * The read loops the annealers share (DESIGN.md §13): the per-read
 * epilogue, and the skeleton that runs reads 64 to a packed pass.
 *
 * A packed sampler supplies only its anneal body — the sweeps over one
 * PackedPass.  Seeding, scheduling, telemetry fan-out, the hand-off of
 * every lane to a scalar walker for the polish, and the merge are
 * common, so lane l of pass p reproduces scalar read p*64+l in
 * SampleSet, stats and telemetry for every sampler alike.
 */

#ifndef QAC_ANNEAL_PACKED_READS_H
#define QAC_ANNEAL_PACKED_READS_H

#include <atomic>
#include <functional>

#include "qac/anneal/packed_sweep.h"
#include "qac/anneal/sampler.h"
#include "qac/anneal/sampleset.h"
#include "qac/ising/compiled.h"
#include "qac/ising/packed.h"
#include "qac/telemetry/telemetry.h"

namespace qac::anneal::detail {

/** What a sampler's reads do after their last sweep. */
struct ReadEpilogue
{
    const char *energy_stat;      ///< "anneal.<solver>.energy"
    bool greedy_polish;           ///< steepest descent before reporting
    uint64_t proposals_per_sweep; ///< telemetry's proposal count
};

/**
 * The end of one read: polish @p walker if asked, take the exact
 * energy of its spins, publish the per-read stats and the telemetry
 * record (@p rec may be null), and add the read to @p part.
 */
void finishRead(const ReadEpilogue &epi, ising::LocalFieldState &walker,
                telemetry::ReadRecorder *rec, uint32_t sweeps_done,
                std::atomic<uint64_t> &flips, SampleSet &part);

/**
 * The CommonParams::packed policy: On always packs, Off never does,
 * Auto packs when reads >= 8 and a vector engine dispatches (below
 * that, or on the scalar engine, the per-read kernel wins).  The two
 * paths are bitwise-identical by contract, so this is a perf choice.
 */
bool usePacked(const CommonParams &params);

/** One 64-lane pass: lane l is read base + l. */
struct PackedPass
{
    static constexpr uint32_t kLanes = ising::PackedState::kLanes;

    PackedPass(const ising::CompiledModel &kernel, uint32_t sweeps,
               uint64_t proposals_per_sweep);

    ising::PackedState state;
    LaneRngs rngs;
    telemetry::ReadRecorder *rec[kLanes] = {};
    bool any_rec = false;
    /** Sweeps each lane ran; an anneal body that freezes lanes early
     *  lowers their entries. */
    uint32_t sweeps_done[kLanes];
    uint64_t proposals_per_sweep;

    /** Record sweep @p s for each lane of @p lanes with a recorder —
     *  per lane exactly what the scalar read loop records. */
    void record(uint32_t s, double beta, uint64_t lanes);
};

/**
 * Run params.num_reads reads 64 to a pass.  Passes, not reads, are the
 * work items the thread pool schedules.  Lane l of pass p is seeded
 * from Rng::streamAt(params.seed, p*64+l) exactly as scalar read
 * p*64+l is; @p anneal runs the sweeps; every lane then goes through
 * finishRead.  The merged SampleSet is bitwise the scalar path's at
 * any thread count.  Records anneal.kernel.{lanes,packed_passes}.
 */
SampleSet
samplePackedReads(const CommonParams &params,
                  const ising::CompiledModel &kernel, uint32_t sweeps,
                  telemetry::RunTrace *trun, const ReadEpilogue &epi,
                  std::atomic<uint64_t> &flips,
                  const std::function<void(PackedPass &)> &anneal);

} // namespace qac::anneal::detail

#endif // QAC_ANNEAL_PACKED_READS_H
