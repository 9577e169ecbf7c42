/**
 * @file
 * Before/after throughput of the CSR Ising kernel (DESIGN.md §9).
 *
 * Every sampler's hot loop used to recompute each variable's local
 * field by walking IsingModel::adjacency() per proposal; they now run
 * on ising::CompiledModel + LocalFieldState, where a proposal is one
 * array read and an accepted flip is one CSR row update.  This bench
 * replays both generations of each hot loop — the baselines are
 * faithful replicas of the pre-kernel read bodies, including qbsolv's
 * old full-model energy() per candidate move — on the same
 * chimera-scale model in the same run, and reports spin-flip
 * proposals per second for each sampler.
 *
 * The "packed" row is different in kind (DESIGN.md §13): it compares
 * the scalar per-read SA hot loop against the 64-lane multi-spin
 * kernel on the same 64 reads, in aggregate per-replica proposals per
 * second.  Both sides run the identical dynamics (the packed kernel
 * is bitwise-equal to the scalar path by contract), so the speedup
 * gauge is a pure time ratio.
 *
 * The "packed_chainflip" row does the same for the chain-flip
 * annealer on a C16-embedded model: 64 per-read chainflip reads
 * against one 64-lane pass of the packed chain pass plus the floor-0
 * single-qubit sweep.
 *
 * BENCH_ising_kernel.json carries the machine-readable form:
 * bench.kernel.<sampler>.{baseline,kernel}_flips_per_sec and
 * .speedup_x100 gauges.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "qac/anneal/descent.h"
#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_sweep.h"
#include "qac/anneal/simulated.h"
#include "qac/chimera/chimera.h"
#include "qac/core/compiler.h"
#include "qac/ising/compiled.h"
#include "qac/ising/model.h"
#include "qac/ising/packed.h"
#include "qac/stats/registry.h"
#include "qac/util/rng.h"

#include "bench_stats.h"

namespace {

using namespace qac;

constexpr uint64_t kSeed = 2019;
constexpr double kMaxExpArg = 40.0; // mirrors simulated.cpp's cutoff

/** C_m Chimera hardware graph with random h, J in [-1, 1). */
ising::IsingModel
chimeraModel(uint32_t m)
{
    chimera::HardwareGraph g = chimera::chimeraGraph(m);
    ising::IsingModel model(g.numNodes());
    Rng rng(kSeed);
    for (uint32_t i = 0; i < g.numNodes(); ++i)
        model.addLinear(i, rng.uniform() * 2 - 1);
    for (const auto &[u, v] : g.activeEdges())
        model.addQuadratic(u, v, rng.uniform() * 2 - 1);
    return model;
}

/** One chain per K_{4,4} half-cell: the embedded-model shape. */
std::vector<std::vector<uint32_t>>
halfCellChains(uint32_t m)
{
    std::vector<std::vector<uint32_t>> chains;
    for (uint32_t row = 0; row < m; ++row)
        for (uint32_t col = 0; col < m; ++col)
            for (uint32_t half = 0; half < 2; ++half) {
                std::vector<uint32_t> chain;
                for (uint32_t k = 0; k < 4; ++k)
                    chain.push_back(chimera::chimeraIndex(
                        m, {row, col, half, k}));
                chains.push_back(std::move(chain));
            }
    return chains;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Run
{
    uint64_t proposals = 0;
    double seconds = 0.0;
    double checksum = 0.0; ///< defeats dead-code elimination
};

struct Config
{
    uint32_t sa_reads, sa_sweeps;
    uint32_t sqa_reads, sqa_sweeps, sqa_slices;
    uint32_t cf_reads, cf_sweeps;
    uint32_t descent_reads;
    uint32_t qb_candidates, qb_sub_n;
};

Config
config()
{
    if (benchstats::smoke())
        return {2, 16, 1, 8, 4, 2, 8, 4, 8, 48};
    // sa/chainflip sweep counts mirror the pipeline's default anneal
    // length (core::RunOptions::sweeps = 512); short schedules
    // under-weight the cold phase, where proposals are cheapest.
    return {8, 256, 4, 24, 8, 8, 128, 24, 120, 48};
}

std::vector<double>
betaSchedule(double b0, double b1, uint32_t sweeps)
{
    std::vector<double> betas(sweeps);
    double ratio =
        (sweeps > 1) ? std::pow(b1 / b0, 1.0 / (sweeps - 1)) : 1.0;
    double b = b0;
    for (uint32_t s = 0; s < sweeps; ++s) {
        betas[s] = b;
        b *= ratio;
    }
    return betas;
}

// --------------------------------------------------------------- SA

Run
saBaseline(const ising::IsingModel &model,
           const std::vector<double> &betas, uint32_t reads)
{
    const auto &adj = model.adjacency();
    const size_t n = model.numVars();
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        ising::SpinVector spins(n);
        for (auto &s : spins)
            s = rng.spin();
        for (double beta : betas) {
            for (uint32_t i = 0; i < n; ++i) {
                double local = model.linear(i);
                for (const auto &[j, w] : adj[i])
                    local += w * spins[j];
                double delta = -2.0 * spins[i] * local;
                if (delta <= 0.0 ||
                    rng.uniform() < std::exp(-beta * delta))
                    spins[i] = static_cast<ising::Spin>(-spins[i]);
            }
        }
        r.checksum += model.energy(spins);
    }
    r.seconds = now() - t0;
    r.proposals = uint64_t{reads} * betas.size() * n;
    return r;
}

Run
saKernel(const ising::CompiledModel &kernel,
         const std::vector<double> &betas, uint32_t reads)
{
    const size_t n = kernel.numVars();
    ising::LocalFieldState state(kernel);
    ising::SpinVector spins(n);
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        for (auto &s : spins)
            s = rng.spin();
        state.reset(spins);
        for (double beta : betas) {
            const double thresh = kMaxExpArg / beta;
            bool drew = false;
            for (uint32_t i = 0; i < n; ++i) {
                const double delta = state.flipDelta(i);
                if (delta >= thresh)
                    continue;
                drew = true;
                if (anneal::metropolisAccept(rng, beta * delta))
                    state.flip(i);
            }
            if (!drew)
                break; // frozen: the remaining sweeps are no-ops
        }
        r.checksum += kernel.energy(state.spins());
    }
    r.seconds = now() - t0;
    r.proposals = uint64_t{reads} * betas.size() * n;
    return r;
}

// ------------------------------------------------- packed multi-spin

/**
 * Scalar comparator for the "packed" row: the per-read scalar SA hot
 * loop exactly as simulated.cpp runs it (threshold skip + monotone
 * freeze-out), over all @p reads reads in turn.  Proposals count one
 * per variable per executed sweep, so the packed side's aggregate
 * per-replica count is directly comparable.
 */
Run
packedScalar(const ising::CompiledModel &kernel,
             const std::vector<double> &betas, uint32_t reads)
{
    const size_t n = kernel.numVars();
    ising::LocalFieldState state(kernel);
    ising::SpinVector spins(n);
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        for (auto &s : spins)
            s = rng.spin();
        state.reset(spins);
        for (double beta : betas) {
            const double thresh = kMaxExpArg / beta;
            bool drew = false;
            for (uint32_t i = 0; i < n; ++i) {
                const double delta = state.flipDelta(i);
                if (delta >= thresh)
                    continue;
                drew = true;
                if (anneal::metropolisAccept(rng, beta * delta))
                    state.flip(i);
            }
            r.proposals += n;
            if (!drew)
                break; // frozen: the remaining sweeps are no-ops
        }
        r.checksum += kernel.energy(state.spins());
    }
    r.seconds = now() - t0;
    return r;
}

/**
 * The same reads through the 64-lane multi-spin kernel (DESIGN.md
 * §13), using whichever sweep engine runtime dispatch selects.  A
 * pass's proposal count is n per live lane per sweep — the dynamics
 * are bitwise-identical to packedScalar's, so the two sides execute
 * the same aggregate replica-sweeps and the speedup is a pure time
 * ratio.
 */
Run
packedKernel(const ising::CompiledModel &kernel,
             const std::vector<double> &betas, uint32_t reads)
{
    const size_t n = kernel.numVars();
    const anneal::PackedSweepFn sweep = anneal::selectPackedEngine().sweep;
    Run r;
    const double t0 = now();
    for (uint32_t base = 0; base < reads;
         base += ising::PackedState::kLanes) {
        const uint32_t nlanes = std::min<uint32_t>(
            ising::PackedState::kLanes, reads - base);
        ising::PackedState state(kernel);
        anneal::LaneRngs rngs;
        ising::SpinVector spins(n);
        for (uint32_t l = 0; l < nlanes; ++l) {
            Rng rng = Rng::streamAt(kSeed, base + l);
            for (auto &s : spins)
                s = rng.spin();
            state.resetLane(l, spins);
            rngs.set(l, rng);
        }
        uint64_t live = state.activeMask();
        for (double beta : betas) {
            const double thresh = kMaxExpArg / beta;
            const uint64_t drew =
                sweep(state, rngs, beta,
                      -std::numeric_limits<double>::infinity(), thresh);
            r.proposals +=
                uint64_t(__builtin_popcountll(live)) * n;
            live &= drew;
            if (live == 0)
                break;
        }
        for (uint32_t l = 0; l < nlanes; ++l)
            r.checksum += state.laneEnergy(l);
    }
    r.seconds = now() - t0;
    return r;
}

// -------------------------------------------------------------- SQA

Run
sqaBaseline(const ising::IsingModel &model, uint32_t reads,
            uint32_t sweeps, uint32_t slices)
{
    const auto &adj = model.adjacency();
    const size_t n = model.numVars();
    const double beta_slice = 5.0 / slices;
    const double g0 = 3.0, g1 = 1e-3;
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        std::vector<ising::SpinVector> rep(slices,
                                           ising::SpinVector(n));
        for (auto &slice : rep)
            for (auto &s : slice)
                s = rng.spin();
        for (uint32_t t = 0; t < sweeps; ++t) {
            double frac = static_cast<double>(t) / (sweeps - 1);
            double gamma = g0 * std::pow(g1 / g0, frac);
            double x = std::tanh(gamma * beta_slice);
            double jperp =
                -0.5 / beta_slice * std::log(std::max(x, 1e-300));
            for (uint32_t m = 0; m < slices; ++m) {
                const auto &up = rep[(m + 1) % slices];
                const auto &dn = rep[(m + slices - 1) % slices];
                auto &cur = rep[m];
                for (uint32_t i = 0; i < n; ++i) {
                    double local = model.linear(i);
                    for (const auto &[j, w] : adj[i])
                        local += w * cur[j];
                    double delta =
                        -2.0 * cur[i] *
                        (beta_slice * local -
                         jperp * beta_slice * (up[i] + dn[i]));
                    if (delta <= 0.0 ||
                        rng.uniform() < std::exp(-delta))
                        cur[i] = static_cast<ising::Spin>(-cur[i]);
                }
            }
        }
        r.checksum += model.energy(rep[0]);
    }
    r.seconds = now() - t0;
    r.proposals = uint64_t{reads} * sweeps * slices * n;
    return r;
}

Run
sqaKernel(const ising::CompiledModel &kernel, uint32_t reads,
          uint32_t sweeps, uint32_t slices)
{
    const size_t n = kernel.numVars();
    const double beta_slice = 5.0 / slices;
    const double g0 = 3.0, g1 = 1e-3;
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        std::vector<ising::LocalFieldState> rep(
            slices, ising::LocalFieldState(kernel));
        ising::SpinVector init(n);
        for (auto &st : rep) {
            for (auto &s : init)
                s = rng.spin();
            st.reset(init);
        }
        for (uint32_t t = 0; t < sweeps; ++t) {
            double frac = static_cast<double>(t) / (sweeps - 1);
            double gamma = g0 * std::pow(g1 / g0, frac);
            double x = std::tanh(gamma * beta_slice);
            double jperp =
                -0.5 / beta_slice * std::log(std::max(x, 1e-300));
            for (uint32_t m = 0; m < slices; ++m) {
                const auto &up = rep[(m + 1) % slices];
                const auto &dn = rep[(m + slices - 1) % slices];
                auto &cur = rep[m];
                for (uint32_t i = 0; i < n; ++i) {
                    double delta =
                        beta_slice * cur.flipDelta(i) +
                        2.0 * cur.spin(i) * jperp * beta_slice *
                            (up.spin(i) + dn.spin(i));
                    if (delta <= 0.0 ||
                        anneal::metropolisAccept(rng, delta))
                        cur.flip(i);
                }
            }
        }
        r.checksum += rep[0].energy();
    }
    r.seconds = now() - t0;
    r.proposals = uint64_t{reads} * sweeps * slices * n;
    return r;
}

// -------------------------------------------------------- chainflip

struct InternalEdge
{
    uint32_t i, j;
    double w;
};

std::vector<std::vector<InternalEdge>>
internalEdges(const ising::IsingModel &model,
              const std::vector<std::vector<uint32_t>> &chains)
{
    const auto &adj = model.adjacency();
    std::vector<std::vector<InternalEdge>> internal(chains.size());
    std::vector<bool> member(model.numVars(), false);
    for (size_t c = 0; c < chains.size(); ++c) {
        for (uint32_t q : chains[c])
            member[q] = true;
        for (uint32_t q : chains[c])
            for (const auto &[r, w] : adj[q])
                if (member[r] && q < r)
                    internal[c].push_back({q, r, w});
        for (uint32_t q : chains[c])
            member[q] = false;
    }
    return internal;
}

Run
chainflipBaseline(const ising::IsingModel &model,
                  const std::vector<std::vector<uint32_t>> &chains,
                  const std::vector<std::vector<InternalEdge>> &internal,
                  const std::vector<double> &betas, uint32_t reads)
{
    const auto &adj = model.adjacency();
    const size_t n = model.numVars();
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        ising::SpinVector spins(n);
        for (auto &s : spins)
            s = rng.spin();
        for (double beta : betas) {
            for (size_t c = 0; c < chains.size(); ++c) {
                double delta = 0.0;
                for (uint32_t q : chains[c])
                    delta += model.flipDelta(spins, q);
                for (const auto &e : internal[c])
                    delta += 4.0 * e.w * spins[e.i] * spins[e.j];
                if (delta <= 0.0 ||
                    rng.uniform() < std::exp(-beta * delta))
                    for (uint32_t q : chains[c])
                        spins[q] =
                            static_cast<ising::Spin>(-spins[q]);
            }
            for (uint32_t i = 0; i < n; ++i) {
                double local = model.linear(i);
                for (const auto &[j, w] : adj[i])
                    local += w * spins[j];
                double delta = -2.0 * spins[i] * local;
                if (delta <= 0.0 ||
                    rng.uniform() < std::exp(-beta * delta))
                    spins[i] = static_cast<ising::Spin>(-spins[i]);
            }
        }
        r.checksum += model.energy(spins);
    }
    r.seconds = now() - t0;
    // Each chain member and each single-qubit pass is one proposal.
    size_t chain_members = 0;
    for (const auto &c : chains)
        chain_members += c.size();
    r.proposals = uint64_t{reads} * betas.size() * (chain_members + n);
    return r;
}

Run
chainflipKernel(const ising::CompiledModel &kernel,
                const std::vector<std::vector<uint32_t>> &chains,
                const std::vector<std::vector<InternalEdge>> &internal,
                const std::vector<double> &betas, uint32_t reads)
{
    const size_t n = kernel.numVars();
    ising::LocalFieldState state(kernel);
    ising::SpinVector spins(n);
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        for (auto &s : spins)
            s = rng.spin();
        state.reset(spins);
        for (double beta : betas) {
            for (size_t c = 0; c < chains.size(); ++c) {
                double delta = 0.0;
                for (uint32_t q : chains[c])
                    delta += state.flipDelta(q);
                for (const auto &e : internal[c])
                    delta += 4.0 * e.w * state.spin(e.i) *
                        state.spin(e.j);
                if (delta <= 0.0 ||
                    anneal::metropolisAccept(rng, beta * delta))
                    for (uint32_t q : chains[c])
                        state.flip(q);
            }
            for (uint32_t i = 0; i < n; ++i) {
                double delta = state.flipDelta(i);
                if (delta <= 0.0 ||
                    anneal::metropolisAccept(rng, beta * delta))
                    state.flip(i);
            }
        }
        r.checksum += kernel.energy(state.spins());
    }
    r.seconds = now() - t0;
    size_t chain_members = 0;
    for (const auto &c : chains)
        chain_members += c.size();
    r.proposals = uint64_t{reads} * betas.size() * (chain_members + n);
    return r;
}

/**
 * The "packed_chainflip" row's kernel side: the same reads through the
 * 64-lane chain pass + floor-0 single-qubit sweep (DESIGN.md §13).
 * Bitwise the dynamics of chainflipKernel per lane, so the two sides
 * execute the same aggregate replica-sweeps and the speedup is a pure
 * time ratio.
 */
Run
packedChainflipKernel(const ising::CompiledModel &kernel,
                      const anneal::FlatChains &chains,
                      const std::vector<double> &betas, uint32_t reads)
{
    const size_t n = kernel.numVars();
    const anneal::PackedEngine &engine = anneal::selectPackedEngine();
    const double no_thresh = std::numeric_limits<double>::infinity();
    Run r;
    const double t0 = now();
    for (uint32_t base = 0; base < reads;
         base += ising::PackedState::kLanes) {
        const uint32_t nlanes = std::min<uint32_t>(
            ising::PackedState::kLanes, reads - base);
        ising::PackedState state(kernel);
        anneal::LaneRngs rngs;
        ising::SpinVector spins(n);
        for (uint32_t l = 0; l < nlanes; ++l) {
            Rng rng = Rng::streamAt(kSeed, base + l);
            for (auto &s : spins)
                s = rng.spin();
            state.resetLane(l, spins);
            rngs.set(l, rng);
        }
        for (double beta : betas) {
            engine.chain_pass(state, rngs, chains, beta);
            engine.sweep(state, rngs, beta, 0.0, no_thresh);
        }
        for (uint32_t l = 0; l < nlanes; ++l)
            r.checksum += state.laneEnergy(l);
    }
    r.seconds = now() - t0;
    r.proposals =
        uint64_t{reads} * betas.size() * (chains.totalMembers() + n);
    return r;
}

/** Figure 5's map coloring, embedded in C16 under embedder seed 1 —
 *  the heaviest chain-embedded model the sampling benchmark anneals. */
embed::EmbeddedModel
embeddedMapColoring()
{
    core::CompileOptions co;
    co.verilogOpts().top = "australia";
    co.target = core::Target::Chimera;
    co.chimera_size = 16;
    co.embed.seed = 1;
    co.cache.enabled = false;
    return *core::compile(
                "module australia (NSW, QLD, SA, VIC, WA, NT, ACT, "
                "valid);\n"
                "  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;\n"
                "  output valid;\n"
                "  assign valid = WA != NT && WA != SA && NT != SA && "
                "NT != QLD &&\n"
                "    SA != QLD && SA != NSW && SA != VIC && QLD != NSW "
                "&&\n"
                "    NSW != VIC && NSW != ACT;\n"
                "endmodule\n",
                co)
                .embedded;
}

// ---------------------------------------------------------- descent

Run
descentBaseline(const ising::IsingModel &model, uint32_t reads)
{
    const auto &adj = model.adjacency();
    const size_t n = model.numVars();
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        ising::SpinVector spins(n);
        for (auto &s : spins)
            s = rng.spin();
        bool improved = true;
        while (improved) {
            improved = false;
            for (uint32_t i = 0; i < n; ++i) {
                double local = model.linear(i);
                for (const auto &[j, w] : adj[i])
                    local += w * spins[j];
                double delta = -2.0 * spins[i] * local;
                if (delta < -1e-12) {
                    spins[i] = static_cast<ising::Spin>(-spins[i]);
                    improved = true;
                }
            }
            r.proposals += n;
        }
        r.checksum += model.energy(spins);
    }
    r.seconds = now() - t0;
    return r;
}

Run
descentKernel(const ising::CompiledModel &kernel, uint32_t reads)
{
    const size_t n = kernel.numVars();
    ising::LocalFieldState state(kernel);
    ising::SpinVector spins(n);
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        for (auto &s : spins)
            s = rng.spin();
        state.reset(spins);
        bool improved = true;
        while (improved) {
            improved = false;
            for (uint32_t i = 0; i < n; ++i) {
                if (state.flipDelta(i) < -1e-12) {
                    state.flip(i);
                    improved = true;
                }
            }
            r.proposals += n;
        }
        r.checksum += state.energy();
    }
    r.seconds = now() - t0;
    return r;
}

// ------------------------------------------------ qbsolv candidates

/**
 * The accept test qbsolv runs once per sub-solver answer.  The old
 * path recomputed the full H(sigma) twice per candidate (before and
 * after); the new path copies the incremental state and compares
 * tracked energies.  One "proposal" here is one flipped variable of
 * the candidate move.
 */
Run
qbsolvBaseline(const ising::IsingModel &model, uint32_t candidates,
               uint32_t sub_n)
{
    const size_t n = model.numVars();
    Rng rng(kSeed);
    ising::SpinVector spins(n);
    for (auto &s : spins)
        s = rng.spin();
    anneal::greedyDescent(model, spins);
    Run r;
    const double t0 = now();
    for (uint32_t c = 0; c < candidates; ++c) {
        double before = model.energy(spins);
        ising::SpinVector candidate = spins;
        for (uint32_t k = 0; k < sub_n; ++k) {
            uint32_t v = static_cast<uint32_t>(rng.below(n));
            candidate[v] = rng.spin();
        }
        anneal::greedyDescent(model, candidate);
        if (model.energy(candidate) <= before)
            spins = std::move(candidate);
    }
    r.seconds = now() - t0;
    r.proposals = uint64_t{candidates} * sub_n;
    r.checksum = model.energy(spins);
    return r;
}

Run
qbsolvKernel(const ising::CompiledModel &kernel, uint32_t candidates,
             uint32_t sub_n)
{
    const size_t n = kernel.numVars();
    Rng rng(kSeed);
    ising::SpinVector spins(n);
    for (auto &s : spins)
        s = rng.spin();
    ising::LocalFieldState state(kernel);
    state.reset(spins);
    anneal::greedyDescent(state);
    Run r;
    const double t0 = now();
    for (uint32_t c = 0; c < candidates; ++c) {
        ising::LocalFieldState candidate = state;
        for (uint32_t k = 0; k < sub_n; ++k) {
            uint32_t v = static_cast<uint32_t>(rng.below(n));
            if (candidate.spin(v) != rng.spin())
                candidate.flip(v);
        }
        anneal::greedyDescent(candidate);
        if (candidate.energy() <= state.energy())
            state = std::move(candidate);
    }
    r.seconds = now() - t0;
    r.proposals = uint64_t{candidates} * sub_n;
    r.checksum = state.energy();
    return r;
}

// ------------------------------------------------------------ table

void reportRow(const char *name, const Run &base, const Run &kern);

/** Median-by-elapsed-time element of a set of repetitions. */
const Run &
medianRun(std::vector<Run> &runs)
{
    std::sort(runs.begin(), runs.end(),
              [](const Run &a, const Run &b) {
                  return a.seconds < b.seconds;
              });
    return runs[runs.size() / 2];
}

/**
 * Time one baseline/kernel pair.  The two sides are run back to back,
 * the pair repeated, and each side reports its median repetition:
 * single-shot timings on a busy host can drift by 10-20% between the
 * two measurements, which would show up as a phantom change in the
 * ratio.  Interleaving puts both sides under the same machine state
 * and the median discards steal-time spikes symmetrically.
 */
template <typename BaseFn, typename KernFn>
void
reportRowRepeated(const char *name, BaseFn runBase, KernFn runKern)
{
    const int reps = benchstats::smoke() ? 1 : 5;
    std::vector<Run> base_runs, kern_runs;
    for (int j = 0; j < reps; ++j) {
        base_runs.push_back(runBase());
        kern_runs.push_back(runKern());
    }
    reportRow(name, medianRun(base_runs), medianRun(kern_runs));
}

void
reportRow(const char *name, const Run &base, const Run &kern)
{
    auto mps = [](const Run &r) {
        return r.seconds > 0
            ? r.proposals / r.seconds / 1e6
            : 0.0;
    };
    double speedup =
        base.seconds > 0 && kern.seconds > 0
            ? (static_cast<double>(kern.proposals) / kern.seconds) /
                (static_cast<double>(base.proposals) / base.seconds)
            : 0.0;
    std::printf("%-16s %14.2f %14.2f %9.2fx\n", name, mps(base),
                mps(kern), speedup);
    std::string prefix = std::string("bench.kernel.") + name;
    stats::gauge(prefix + ".baseline_flips_per_sec",
                 static_cast<uint64_t>(base.proposals / base.seconds));
    stats::gauge(prefix + ".kernel_flips_per_sec",
                 static_cast<uint64_t>(kern.proposals / kern.seconds));
    stats::gauge(prefix + ".speedup_x100",
                 static_cast<uint64_t>(speedup * 100));
    benchmark::DoNotOptimize(base.checksum);
    benchmark::DoNotOptimize(kern.checksum);
}

void
printKernelTable()
{
    const Config cfg = config();
    const uint32_t m = 16; // C16: the paper's D-Wave 2000Q scale
    ising::IsingModel model = chimeraModel(m);
    const ising::CompiledModel kernel(model);
    std::printf("--- CSR Ising kernel: proposals/sec, C%u Chimera "
                "(%zu vars, %zu couplers) ---\n",
                m, model.numVars(), kernel.numEdges());
    std::printf("%-16s %14s %14s %9s\n", "sampler", "base Mprop/s",
                "kernel Mprop/s", "speedup");

    auto [b0, b1] = anneal::SimulatedAnnealer::defaultBetaRange(kernel);

    std::vector<double> sa_betas =
        betaSchedule(b0, b1, cfg.sa_sweeps);
    reportRowRepeated(
        "sa",
        [&] { return saBaseline(model, sa_betas, cfg.sa_reads); },
        [&] { return saKernel(kernel, sa_betas, cfg.sa_reads); });

    // 64 reads = exactly one packed pass; baseline = the scalar
    // per-read kernel loop, not the pre-kernel adjacency walk.
    constexpr uint32_t pk_reads = ising::PackedState::kLanes;
    reportRowRepeated(
        "packed",
        [&] { return packedScalar(kernel, sa_betas, pk_reads); },
        [&] { return packedKernel(kernel, sa_betas, pk_reads); });
    std::printf("           (packed row: 64-lane multi-spin vs scalar "
                "per-read SA, %s engine)\n",
                anneal::selectPackedEngine().name);

    reportRowRepeated(
        "sqa",
        [&] {
            return sqaBaseline(model, cfg.sqa_reads, cfg.sqa_sweeps,
                               cfg.sqa_slices);
        },
        [&] {
            return sqaKernel(kernel, cfg.sqa_reads, cfg.sqa_sweeps,
                             cfg.sqa_slices);
        });

    auto chains = halfCellChains(m);
    auto internal = internalEdges(model, chains);
    std::vector<double> cf_betas =
        betaSchedule(b0, b1, cfg.cf_sweeps);
    reportRowRepeated(
        "chainflip",
        [&] {
            return chainflipBaseline(model, chains, internal,
                                     cf_betas, cfg.cf_reads);
        },
        [&] {
            return chainflipKernel(kernel, chains, internal,
                                   cf_betas, cfg.cf_reads);
        });

    // 64 reads = exactly one packed pass on a real chain-embedded
    // model; baseline = the per-read chainflip kernel loop.
    const embed::EmbeddedModel em = embeddedMapColoring();
    const ising::CompiledModel em_kernel(em.physical);
    auto [eb0, eb1] =
        anneal::SimulatedAnnealer::defaultBetaRange(em_kernel);
    const std::vector<double> em_betas =
        betaSchedule(eb0, eb1, cfg.cf_sweeps);
    const auto em_internal = internalEdges(em.physical, em.dense_chains);
    const anneal::FlatChains em_chains(em_kernel, em.dense_chains);
    reportRowRepeated(
        "packed_chainflip",
        [&] {
            return chainflipKernel(em_kernel, em.dense_chains,
                                   em_internal, em_betas, pk_reads);
        },
        [&] {
            return packedChainflipKernel(em_kernel, em_chains, em_betas,
                                         pk_reads);
        });
    std::printf("           (packed_chainflip row: C16 map coloring, "
                "%zu qubits, %u chains)\n",
                em_kernel.numVars(), em_chains.size());

    reportRowRepeated(
        "descent",
        [&] { return descentBaseline(model, cfg.descent_reads); },
        [&] { return descentKernel(kernel, cfg.descent_reads); });

    reportRowRepeated(
        "qbsolv",
        [&] {
            return qbsolvBaseline(model, cfg.qb_candidates,
                                  cfg.qb_sub_n);
        },
        [&] {
            return qbsolvKernel(kernel, cfg.qb_candidates,
                                cfg.qb_sub_n);
        });

    std::printf("(baselines replay the pre-kernel adjacency-walk "
                "loops; qbsolv rows measure the\n candidate accept "
                "path, where the old code recomputed the full model "
                "energy)\n\n");
}

// ------------------------------------------- google-benchmark cases

void
BM_SaSweepBaseline(benchmark::State &state)
{
    ising::IsingModel model = chimeraModel(8);
    const auto &adj = model.adjacency();
    const size_t n = model.numVars();
    Rng rng(kSeed);
    ising::SpinVector spins(n);
    for (auto &s : spins)
        s = rng.spin();
    const double beta = 1.0;
    for (auto _ : state) {
        for (uint32_t i = 0; i < n; ++i) {
            double local = model.linear(i);
            for (const auto &[j, w] : adj[i])
                local += w * spins[j];
            double delta = -2.0 * spins[i] * local;
            if (delta <= 0.0 ||
                rng.uniform() < std::exp(-beta * delta))
                spins[i] = static_cast<ising::Spin>(-spins[i]);
        }
        benchmark::DoNotOptimize(spins.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SaSweepBaseline);

void
BM_SaSweepKernel(benchmark::State &state)
{
    ising::IsingModel model = chimeraModel(8);
    const ising::CompiledModel kernel(model);
    const size_t n = kernel.numVars();
    Rng rng(kSeed);
    ising::SpinVector spins(n);
    for (auto &s : spins)
        s = rng.spin();
    ising::LocalFieldState lfs(kernel);
    lfs.reset(spins);
    const double beta = 1.0;
    for (auto _ : state) {
        for (uint32_t i = 0; i < n; ++i) {
            const double delta = lfs.flipDelta(i);
            if (delta <= 0.0) {
                lfs.flip(i);
                continue;
            }
            const double bd = beta * delta;
            if (bd >= kMaxExpArg)
                continue;
            if (anneal::metropolisAccept(rng, bd))
                lfs.flip(i);
        }
        benchmark::DoNotOptimize(lfs.energy());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SaSweepKernel);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("ising_kernel");
    printKernelTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
