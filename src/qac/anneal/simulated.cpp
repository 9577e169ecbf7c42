#include "qac/anneal/simulated.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "qac/anneal/anneal_stats.h"
#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_reads.h"
#include "qac/anneal/parallel_reads.h"
#include "qac/ising/compiled.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/logging.h"

namespace qac::anneal {

namespace {

/**
 * exp(-x) for x above this is below the resolution of Rng::uniform()
 * (53 bits), so an uphill move this steep can be rejected without
 * paying for the exp() call.
 */
constexpr double kMaxExpArg = 40.0;

} // namespace

std::pair<double, double>
SimulatedAnnealer::defaultBetaRange(const ising::CompiledModel &kernel)
{
    // Hot end: the largest possible |delta E| flips with probability
    // ~1/2.  Cold end: the smallest nonzero field barely flips.
    double max_local = 0.0;
    double min_scale = std::numeric_limits<double>::infinity();
    const auto &row = kernel.rowOffsets();
    const auto &w = kernel.weights();
    for (uint32_t i = 0; i < kernel.numVars(); ++i) {
        double local = std::abs(kernel.linear(i));
        if (local > 0)
            min_scale = std::min(min_scale, local);
        for (uint32_t k = row[i]; k < row[i + 1]; ++k) {
            local += std::abs(w[k]);
            if (w[k] != 0.0)
                min_scale = std::min(min_scale, std::abs(w[k]));
        }
        max_local = std::max(max_local, local);
    }
    if (max_local <= 0.0)
        return {0.1, 1.0};
    if (!std::isfinite(min_scale))
        min_scale = max_local;
    double beta_hot = std::log(2.0) / (2.0 * max_local);
    double beta_cold = std::log(100.0) / (2.0 * min_scale);
    if (beta_cold <= beta_hot)
        beta_cold = beta_hot * 10.0;
    return {beta_hot, beta_cold};
}

std::pair<double, double>
SimulatedAnnealer::defaultBetaRange(const ising::IsingModel &model)
{
    return defaultBetaRange(ising::CompiledModel(model));
}

SampleSet
SimulatedAnnealer::sample(const ising::IsingModel &model) const
{
    const size_t n = model.numVars();
    SampleSet out;
    if (n == 0) {
        out.finalize();
        return out;
    }

    stats::ScopedTimer timer("anneal.sa.time");
    const uint64_t t0 = stats::Trace::nowNs();

    const ising::CompiledModel kernel(model);

    auto [b0, b1] = defaultBetaRange(kernel);
    if (params_.beta_initial > 0)
        b0 = params_.beta_initial;
    if (params_.beta_final > 0)
        b1 = params_.beta_final;

    const uint32_t sweeps = std::max<uint32_t>(1, params_.sweeps);
    // Geometric beta schedule.
    std::vector<double> betas(sweeps);
    double ratio = (sweeps > 1)
                       ? std::pow(b1 / b0, 1.0 / (sweeps - 1))
                       : 1.0;
    double b = b0;
    for (uint32_t s = 0; s < sweeps; ++s) {
        betas[s] = b;
        b *= ratio;
    }

    std::atomic<uint64_t> flips{0};
    telemetry::RunTrace *trun =
        telemetry::Collector::global().beginRun("sa",
                                                params_.num_reads);
    // Proposals are counted as n per sweep (the thresh skip is a
    // rejection taken early).
    const detail::ReadEpilogue epi{"anneal.sa.energy",
                                   params_.greedy_polish, n};
    // With a monotone (heating) schedule, a sweep that draws nothing
    // proves the state frozen: every variable sat at delta >= thresh,
    // no flip was possible, and every remaining sweep would make the
    // same rejections while consuming no randomness — skipping them is
    // bitwise identical.
    const bool monotone = ratio >= 1.0;

    if (detail::usePacked(params_)) {
        // Multi-spin-coded SA (DESIGN.md §13).  Per-lane freeze-out
        // mirrors the scalar loop: a live lane that drew nothing in a
        // monotone-schedule sweep is frozen, and is recorded through
        // its freezing sweep only.
        const PackedSweepFn sweep_fn = selectPackedEngine().sweep;
        const double no_floor = -std::numeric_limits<double>::infinity();
        out = detail::samplePackedReads(
            params_, kernel, sweeps, trun, epi, flips,
            [&](detail::PackedPass &pass) {
                uint64_t live = pass.state.activeMask();
                for (uint32_t s = 0; s < sweeps; ++s) {
                    const double beta = betas[s];
                    const uint64_t drew =
                        sweep_fn(pass.state, pass.rngs, beta, no_floor,
                                 kMaxExpArg / beta);
                    pass.record(s, beta, live);
                    if (monotone) {
                        for (uint64_t m = live & ~drew; m != 0;
                             m &= m - 1)
                            pass.sweeps_done[__builtin_ctzll(m)] = s + 1;
                        live &= drew;
                        if (live == 0)
                            break;
                    }
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
                // Null while telemetry is disabled: the per-sweep hook
                // below degrades to one pointer test per sweep.
                telemetry::ReadRecorder *rec =
                    trun ? trun->recorder(read) : nullptr;

                uint32_t sweeps_done = sweeps;
                for (uint32_t s = 0; s < sweeps; ++s) {
                    const double beta = betas[s];
                    const double thresh = kMaxExpArg / beta;
                    bool drew = false;
                    for (uint32_t i = 0; i < n; ++i) {
                        // O(1) proposal off the maintained flip delta.
                        // Everything below the cutoff — downhill
                        // included — goes through one uniform draw,
                        // leaving the accept-or-not below as the
                        // sweep's only data-dependent branch (downhill
                        // deltas always accept; see metropolisAccept).
                        const double delta = state.flipDelta(i);
                        if (delta >= thresh)
                            continue;
                        drew = true;
                        if (metropolisAccept(rng, beta * delta))
                            state.flip(i);
                    }
                    if (rec && rec->want(s))
                        rec->record(s, state.energy(), beta,
                                    state.flips(), uint64_t{s + 1} * n);
                    if (monotone && !drew) {
                        sweeps_done = s + 1;
                        break;
                    }
                }
                detail::finishRead(epi, state, rec, sweeps_done, flips,
                                   part);
            });
    }
    const uint64_t elapsed = stats::Trace::nowNs() - t0;
    detail::recordSampleStats("sa", out,
                              uint64_t{sweeps} * params_.num_reads,
                              elapsed);
    detail::recordKernelStats("sa",
                              flips.load(std::memory_order_relaxed),
                              elapsed);
    return out;
}

} // namespace qac::anneal
