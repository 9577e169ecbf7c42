#include "qac/anneal/packed_sweep.h"

#include <limits>

#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_engine.h"
#include "qac/util/cpu.h"
#include "qac/util/logging.h"

namespace qac::anneal {

namespace {

/** The portable engine's primitives, used by its sweep and by the
 *  shared chain pass. */
struct ScalarOps
{
    /**
     * The floor rule over the lanes of @p cand, one lane at a time:
     * d <= lo accepts with no draw, the other lanes draw (@p drew
     * receives them).  lo = -inf is no floor at all: every candidate
     * draws, as in SA's loop.
     */
    static uint64_t
    decide(LaneRngs &rngs, const double *d, uint64_t cand, double lo,
           double beta, uint64_t &drew)
    {
        uint64_t floor = 0;
        if (lo > -detail::kInf)
            for (uint64_t m = cand; m != 0; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(__builtin_ctzll(m));
                floor |= uint64_t{d[l] <= lo} << l;
            }
        drew = cand & ~floor;
        return floor | detail::drawLanes(rngs, d, drew, beta);
    }

    static void
    apply(const detail::Planes &p, uint32_t i, uint64_t accept)
    {
        p.state->applyFlips(i, accept);
    }
};

constexpr PackedEngine kScalarEngine{"scalar", &packedSweepScalar,
                                     &packedChainPassScalar};
constexpr PackedEngine kAvx2Engine{"avx2", &packedSweepAvx2,
                                   &packedChainPassAvx2};
constexpr PackedEngine kAvx512Engine{"avx512", &packedSweepAvx512,
                                     &packedChainPassAvx512};

} // namespace

FlatChains::FlatChains(const ising::CompiledModel &model,
                       const std::vector<std::vector<uint32_t>> &chains)
{
    const size_t n = model.numVars();
    constexpr uint32_t kFree = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> owner(n, kFree);
    for (size_t c = 0; c < chains.size(); ++c) {
        for (uint32_t q : chains[c]) {
            if (q >= n)
                fatal("chainflip: chain %zu lists qubit %u, but the "
                      "model has %zu variables",
                      c, q, n);
            if (owner[q] != kFree)
                fatal("chainflip: qubit %u is listed in chain %u and "
                      "again in chain %zu",
                      q, owner[q], c);
            owner[q] = static_cast<uint32_t>(c);
        }
    }

    const auto &row = model.rowOffsets();
    const auto &nbr = model.neighbors();
    const auto &w = model.weights();
    for (size_t c = 0; c < chains.size(); ++c) {
        for (uint32_t q : chains[c]) {
            members.push_back(q);
            for (uint32_t k = row[q]; k < row[q + 1]; ++k) {
                if (owner[nbr[k]] == c && q < nbr[k]) {
                    edge_i.push_back(q);
                    edge_j.push_back(nbr[k]);
                    edge_w4.push_back(4.0 * w[k]);
                }
            }
        }
        member_off.push_back(static_cast<uint32_t>(members.size()));
        edge_off.push_back(static_cast<uint32_t>(edge_i.size()));
    }
}

uint64_t
packedSweepScalar(ising::PackedState &state, LaneRngs &rngs,
                  double beta, double lo, double thresh)
{
    const uint32_t n = static_cast<uint32_t>(state.model().numVars());
    const double *min_delta = state.minDelta();
    const double *delta = state.deltaPlane();
    uint64_t drew = 0;
    for (uint32_t i = 0; i < n; ++i) {
        // One compare retires all 64 lanes while every delta at i sits
        // at or above the draw threshold — the usual case once the
        // schedule cools.
        if (min_delta[i] >= thresh)
            continue;
        const uint64_t cand = state.candidateMask(i, thresh);
        if (cand == 0)
            continue;
        const double *di = delta + size_t{i} * ising::PackedState::kLanes;
        uint64_t drew_i = 0;
        const uint64_t accept =
            ScalarOps::decide(rngs, di, cand, lo, beta, drew_i);
        drew |= drew_i;
        if (accept != 0)
            state.applyFlips(i, accept);
    }
    return drew;
}

void
packedChainPassScalar(ising::PackedState &state, LaneRngs &rngs,
                      const FlatChains &chains, double beta)
{
    detail::chainPass<ScalarOps>(detail::planesOf(state), rngs,
                                 detail::planesOf(chains), beta);
}

namespace detail {

Planes
planesOf(ising::PackedState &state)
{
    const auto &model = state.model();
    return {&state,
            static_cast<uint32_t>(model.numVars()),
            state.deltaPlane(),
            state.minDelta(),
            state.spinBits(),
            state.laneFlipCounters(),
            state.activeMask(),
            model.rowOffsets().data(),
            model.neighbors().data(),
            model.weights().data()};
}

ChainPlanes
planesOf(const FlatChains &chains)
{
    return {chains.size(),         chains.member_off.data(),
            chains.members.data(), chains.edge_off.data(),
            chains.edge_i.data(),  chains.edge_j.data(),
            chains.edge_w4.data()};
}

uint64_t
drawLanes(LaneRngs &rngs, const double *d, uint64_t draw, double beta)
{
    uint64_t accept = 0;
    for (uint64_t m = draw; m != 0; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(__builtin_ctzll(m));
        const double u = rngs.uniform(l);
        accept |= uint64_t{metropolisAcceptU(u, beta * d[l])} << l;
    }
    return accept;
}

} // namespace detail

const PackedEngine &
selectPackedEngine()
{
    if (packedSweepAvx512Compiled() && util::avx512Supported())
        return kAvx512Engine;
    if (packedSweepAvx2Compiled() && util::avx2Supported())
        return kAvx2Engine;
    return kScalarEngine;
}

} // namespace qac::anneal
