#include "qac/anneal/packed_reads.h"

#include <algorithm>

#include "qac/anneal/anneal_stats.h"
#include "qac/anneal/descent.h"
#include "qac/exec/exec.h"
#include "qac/stats/registry.h"
#include "qac/util/rng.h"

namespace qac::anneal::detail {

void
finishRead(const ReadEpilogue &epi, ising::LocalFieldState &walker,
           telemetry::ReadRecorder *rec, uint32_t sweeps_done,
           std::atomic<uint64_t> &flips, SampleSet &part)
{
    if (epi.greedy_polish)
        greedyDescent(walker);
    // One exact end-of-read evaluation (the sweeps never recompute
    // the full Hamiltonian).
    const double e = walker.model().energy(walker.spins());
    stats::record(epi.energy_stat, e);
    flips.fetch_add(walker.flips(), std::memory_order_relaxed);
    if (rec)
        rec->finish(e, sweeps_done, walker.flips(),
                    uint64_t{sweeps_done} * epi.proposals_per_sweep);
    part.add(walker.spins(), e);
}

bool
usePacked(const CommonParams &params)
{
    return params.packed == PackedMode::On ||
           (params.packed == PackedMode::Auto && params.num_reads >= 8 &&
            selectPackedEngine().sweep != &packedSweepScalar);
}

PackedPass::PackedPass(const ising::CompiledModel &kernel,
                       uint32_t sweeps, uint64_t proposals_per_sweep)
    : state(kernel), proposals_per_sweep(proposals_per_sweep)
{
    std::fill(sweeps_done, sweeps_done + kLanes, sweeps);
}

void
PackedPass::record(uint32_t s, double beta, uint64_t lanes)
{
    if (!any_rec)
        return;
    for (uint64_t m = lanes; m != 0; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(__builtin_ctzll(m));
        if (rec[l] && rec[l]->want(s))
            rec[l]->record(s, state.laneEnergy(l), beta, state.flips(l),
                           uint64_t{s + 1} * proposals_per_sweep);
    }
}

SampleSet
samplePackedReads(const CommonParams &params,
                  const ising::CompiledModel &kernel, uint32_t sweeps,
                  telemetry::RunTrace *trun, const ReadEpilogue &epi,
                  std::atomic<uint64_t> &flips,
                  const std::function<void(PackedPass &)> &anneal)
{
    constexpr uint32_t kLanes = PackedPass::kLanes;
    const uint32_t n = static_cast<uint32_t>(kernel.numVars());
    const uint32_t passes = (params.num_reads + kLanes - 1) / kLanes;

    std::vector<SampleSet> parts(passes);
    exec::parallelFor(passes, params.threads, [&](size_t p) {
        const uint32_t base = static_cast<uint32_t>(p) * kLanes;
        const uint32_t nlanes =
            std::min<uint32_t>(kLanes, params.num_reads - base);

        PackedPass pass(kernel, sweeps, epi.proposals_per_sweep);
        ising::SpinVector spins(n);
        for (uint32_t l = 0; l < nlanes; ++l) {
            Rng rng = Rng::streamAt(params.seed, base + l);
            for (auto &s : spins)
                s = rng.spin();
            pass.state.resetLane(l, spins);
            pass.rngs.set(l, rng);
            pass.rec[l] = trun ? trun->recorder(base + l) : nullptr;
            pass.any_rec |= pass.rec[l] != nullptr;
        }

        anneal(pass);

        for (uint32_t l = 0; l < nlanes; ++l) {
            // Hand the lane to a scalar walker for the polish and the
            // final report.  The maintained deltas are adopted, not
            // recomputed, so the descent sees the exact values the
            // scalar path's walker would carry here.
            ising::LocalFieldState walker(kernel);
            walker.adopt(pass.state.laneSpins(l),
                         pass.state.laneDeltas(l), pass.state.flips(l));
            finishRead(epi, walker, pass.rec[l], pass.sweeps_done[l],
                       flips, parts[p]);
        }
    });

    SampleSet out;
    for (auto &part : parts)
        out.merge(std::move(part));
    out.finalize();
    recordPackedStats(kLanes, passes);
    return out;
}

} // namespace qac::anneal::detail
