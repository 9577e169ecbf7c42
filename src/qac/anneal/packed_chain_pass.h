/**
 * @file
 * The packed chain pass (DESIGN.md §13), written once and instantiated
 * in each sweep engine's translation unit with that engine's draw +
 * decide and batched flip-apply primitives, so the per-lane chain sums
 * compile to the engine's vector width.
 *
 * Private to qac/anneal: include it only from the packed_sweep*.cpp
 * engines, and instantiate it only with an Ops type of internal
 * linkage.  The engine TUs are compiled for different instruction
 * sets; an instantiation with external linkage could be merged by the
 * linker into one copy that the host cannot run.
 */

#ifndef QAC_ANNEAL_PACKED_CHAIN_PASS_H
#define QAC_ANNEAL_PACKED_CHAIN_PASS_H

#include <cstring>

#include "qac/anneal/packed_sweep.h"

namespace qac::anneal::detail {

/**
 * Ops supplies two static members:
 *
 *   uint64_t decide(LaneRngs &rngs, const double *d, uint64_t cand,
 *                   double lo, double beta, uint64_t &drew);
 *     lanes of @p cand with d[l] <= lo accept with no draw; the other
 *     lanes of cand (returned in @p drew) draw one uniform and accept
 *     by metropolisAcceptU(u, beta * d[l]).  Returns the accept mask.
 *
 *   void apply(ising::PackedState &state, uint32_t i, uint64_t accept);
 *     PackedState::applyFlips, bit for bit.
 */
template <class Ops>
void
chainPass(ising::PackedState &state, LaneRngs &rngs,
          const FlatChains &chains, double beta)
{
    constexpr uint32_t kLanes = ising::PackedState::kLanes;
    const double *delta = state.deltaPlane();
    const uint64_t *bits = state.spinBits();
    const uint64_t active = state.activeMask();
    const uint32_t *moff = chains.member_off.data();
    const uint32_t *members = chains.members.data();
    const uint32_t *eoff = chains.edge_off.data();
    const uint32_t *ei = chains.edge_i.data();
    const uint32_t *ej = chains.edge_j.data();
    const double *ew4 = chains.edge_w4.data();

    alignas(64) double sum[kLanes];
    const uint32_t nchains = chains.size();
    for (uint32_t c = 0; c < nchains; ++c) {
        // The per-read loop's composite delta, per lane and in its
        // order: members' maintained deltas from +0.0, then
        // (4J) s_i s_j per internal edge.  Multiplying by ±1 only sets
        // the sign, so the product is 4J with its sign bit XORed by
        // "the spins differ" — exact, signed zeros included.
        for (uint32_t l = 0; l < kLanes; ++l)
            sum[l] = 0.0;
        for (uint32_t k = moff[c]; k < moff[c + 1]; ++k) {
            const double *dq = delta + size_t{members[k]} * kLanes;
            for (uint32_t l = 0; l < kLanes; ++l)
                sum[l] += dq[l];
        }
        for (uint32_t e = eoff[c]; e < eoff[c + 1]; ++e) {
            const uint64_t differ = bits[ei[e]] ^ bits[ej[e]];
            uint64_t w4;
            std::memcpy(&w4, &ew4[e], sizeof w4);
            for (uint32_t l = 0; l < kLanes; ++l) {
                const uint64_t v = w4 ^ (((differ >> l) & 1) << 63);
                double term;
                std::memcpy(&term, &v, sizeof term);
                sum[l] += term;
            }
        }
        // delta <= 0 || metropolisAccept(rng, beta * delta), over the
        // active lanes (every one of them is a scalar read that
        // reaches this test).
        uint64_t drew = 0;
        const uint64_t accept =
            Ops::decide(rngs, sum, active, 0.0, beta, drew);
        if (accept == 0)
            continue;
        for (uint32_t k = moff[c]; k < moff[c + 1]; ++k)
            Ops::apply(state, members[k], accept);
    }
}

} // namespace qac::anneal::detail

#endif // QAC_ANNEAL_PACKED_CHAIN_PASS_H
