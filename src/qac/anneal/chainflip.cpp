#include "qac/anneal/chainflip.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "qac/anneal/anneal_stats.h"
#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_reads.h"
#include "qac/anneal/parallel_reads.h"
#include "qac/anneal/simulated.h"
#include "qac/ising/compiled.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/rng.h"

namespace qac::anneal {

SampleSet
ChainFlipAnnealer::sample(const ising::IsingModel &model) const
{
    const size_t n = model.numVars();
    SampleSet out;
    if (n == 0) {
        out.finalize();
        return out;
    }

    stats::ScopedTimer timer("anneal.chainflip.time");
    const uint64_t t0 = stats::Trace::nowNs();

    const ising::CompiledModel kernel(model);

    auto [b0, b1] = SimulatedAnnealer::defaultBetaRange(kernel);
    if (params_.beta_initial > 0)
        b0 = params_.beta_initial;
    if (params_.beta_final > 0)
        b1 = params_.beta_final;

    // Flattened once per call; validates the chain ids (FatalError on
    // an out-of-range or repeated qubit).  Flipping a whole chain
    // leaves its internal couplings unchanged, so the summed
    // single-flip deltas are corrected by +4 J s_i s_j per internal
    // edge.
    const FlatChains chains(kernel, chains_);

    const uint32_t sweeps = std::max<uint32_t>(1, params_.sweeps);
    const double ratio =
        (sweeps > 1) ? std::pow(b1 / b0, 1.0 / (sweeps - 1)) : 1.0;
    std::vector<double> betas(sweeps);
    double b = b0;
    for (uint32_t s = 0; s < sweeps; ++s, b *= ratio)
        betas[s] = b;

    std::atomic<uint64_t> flips{0};
    telemetry::RunTrace *trun =
        telemetry::Collector::global().beginRun("chainflip",
                                                params_.num_reads);
    // An accepted composite move flips every chain member (each bumps
    // the flips() counter), so proposals are counted in member flips —
    // chain members plus the single-qubit pass — keeping the derived
    // acceptance rate in [0, 1].
    const detail::ReadEpilogue epi{"anneal.chainflip.energy",
                                   params_.greedy_polish,
                                   n + chains.totalMembers()};

    if (detail::usePacked(params_)) {
        // 64 reads per pass (DESIGN.md §13): per sweep, the chain pass
        // and then the single-qubit pass with the draw floor at 0 and
        // no threshold — `delta <= 0 || metropolisAccept(...)` per
        // lane, exactly the per-read loop below.
        const PackedEngine &engine = selectPackedEngine();
        const double no_thresh = std::numeric_limits<double>::infinity();
        out = detail::samplePackedReads(
            params_, kernel, sweeps, trun, epi, flips,
            [&](detail::PackedPass &pass) {
                const uint64_t lanes = pass.state.activeMask();
                for (uint32_t sw = 0; sw < sweeps; ++sw) {
                    engine.chain_pass(pass.state, pass.rngs, chains,
                                      betas[sw]);
                    engine.sweep(pass.state, pass.rngs, betas[sw], 0.0,
                                 no_thresh);
                    pass.record(sw, betas[sw], lanes);
                }
            });
    } else {
        out = detail::sampleReads(
            params_.num_reads, params_.threads,
            [&](uint32_t read, SampleSet &part) {
                Rng rng = Rng::streamAt(params_.seed, read);
                ising::SpinVector spins(n);
                for (auto &s : spins)
                    s = rng.spin();
                ising::LocalFieldState state(kernel);
                state.reset(spins);
                telemetry::ReadRecorder *rec =
                    trun ? trun->recorder(read) : nullptr;

                for (uint32_t sw = 0; sw < sweeps; ++sw) {
                    const double beta = betas[sw];
                    // Composite chain moves: the acceptance delta sums
                    // the members' O(1) incremental deltas (frozen
                    // state) plus the internal-edge correction; the
                    // accepted flip applies the member flips
                    // sequentially, which lands on exactly that
                    // composite delta.
                    const auto &sp = state.spins();
                    for (uint32_t c = 0; c < chains.size(); ++c) {
                        const uint32_t m0 = chains.member_off[c];
                        const uint32_t m1 = chains.member_off[c + 1];
                        double delta = 0.0;
                        for (uint32_t k = m0; k < m1; ++k)
                            delta += state.flipDelta(chains.members[k]);
                        for (uint32_t e = chains.edge_off[c];
                             e < chains.edge_off[c + 1]; ++e)
                            delta += chains.edge_w4[e] *
                                     sp[chains.edge_i[e]] *
                                     sp[chains.edge_j[e]];
                        if (delta <= 0.0 ||
                            metropolisAccept(rng, beta * delta)) {
                            for (uint32_t k = m0; k < m1; ++k)
                                state.flip(chains.members[k]);
                        }
                    }
                    // Single-qubit relaxation.
                    for (uint32_t i = 0; i < n; ++i) {
                        const double delta = state.flipDelta(i);
                        if (delta <= 0.0 ||
                            metropolisAccept(rng, beta * delta))
                            state.flip(i);
                    }
                    if (rec && rec->want(sw))
                        rec->record(sw, state.energy(), beta,
                                    state.flips(),
                                    uint64_t{sw + 1} *
                                        epi.proposals_per_sweep);
                }
                detail::finishRead(epi, state, rec, sweeps, flips, part);
            });
    }
    const uint64_t elapsed = stats::Trace::nowNs() - t0;
    detail::recordSampleStats("chainflip", out,
                              uint64_t{sweeps} * params_.num_reads,
                              elapsed);
    detail::recordKernelStats("chainflip",
                              flips.load(std::memory_order_relaxed),
                              elapsed);
    return out;
}

} // namespace qac::anneal
