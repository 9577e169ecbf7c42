/**
 * @file
 * Packed Metropolis sweep engines over ising::PackedState
 * (DESIGN.md §13).
 *
 * A packed sweep walks every variable once and, per variable, decides
 * all 64 replica lanes together: lanes at or below the draw floor
 * accept outright, lanes between the floor and the draw threshold
 * (exactly the lanes whose scalar walker would draw a uniform) draw
 * one uniform each from their own xoshiro256** stream and accept by
 * metropolisAcceptU, and the accepted flips land in one batched pass
 * over the CSR row.  A packed chain pass decides chainflip's composite
 * moves the same way over per-lane chain sums.
 *
 * Three engines implement this contract: a portable scalar one, an
 * AVX2 one (QAC_ENABLE_AVX2 build option, util::avx2Supported()
 * hosts) and an AVX-512 one (QAC_ENABLE_AVX512, avx512Supported()).
 * They are required to be bit-identical — per lane, each must
 * reproduce the scalar LocalFieldState walker exactly — so engine
 * selection is a pure performance decision and never observable in
 * results.
 */

#ifndef QAC_ANNEAL_PACKED_SWEEP_H
#define QAC_ANNEAL_PACKED_SWEEP_H

#include <cstdint>
#include <vector>

#include "qac/ising/compiled.h"
#include "qac/ising/packed.h"
#include "qac/util/rng.h"

namespace qac::anneal {

/**
 * 64 xoshiro256** generators in structure-of-arrays form: state word
 * w of lane l lives at s[w][l], so the vector engines can step four
 * (AVX2) or eight (AVX-512) lanes per vector op while any single lane
 * remains steppable alone.  Lanes advance only when they draw — lane
 * l consumes exactly the uniforms scalar read base+l consumes, in the
 * same order.
 */
struct LaneRngs
{
    uint64_t s[4][ising::PackedState::kLanes] = {};

    /** Install @p rng's current state as lane @p lane's stream. */
    void
    set(uint32_t lane, const Rng &rng)
    {
        const auto st = rng.state();
        for (int w = 0; w < 4; ++w)
            s[w][lane] = st[w];
    }

    /** Step lane @p lane — bitwise Rng::next on its state words. */
    uint64_t
    next(uint32_t lane)
    {
        const uint64_t s1 = s[1][lane];
        const uint64_t result =
            ((s1 * 5 << 7) | (s1 * 5 >> 57)) * 9;
        const uint64_t t = s1 << 17;
        s[2][lane] ^= s[0][lane];
        s[3][lane] ^= s1;
        s[1][lane] ^= s[2][lane];
        s[0][lane] ^= s[3][lane];
        s[2][lane] ^= t;
        s[3][lane] = (s[3][lane] << 45) | (s[3][lane] >> 19);
        return result;
    }

    /** Bitwise Rng::uniform for lane @p lane. */
    double
    uniform(uint32_t lane)
    {
        return static_cast<double>(next(lane) >> 11) * 0x1.0p-53;
    }
};

/**
 * Chains flattened once per sample() call into CSR arrays, for the
 * composite moves of the chain-flip annealer (DESIGN.md §13).  Chain c
 * owns members[member_off[c] .. member_off[c+1]) in chain order and
 * internal edges [edge_off[c] .. edge_off[c+1]) in the order the
 * per-read loop corrects them: member by member, each member's CSR row
 * in neighbor order, edge (i, j) taken once from its lower end.
 */
struct FlatChains
{
    std::vector<uint32_t> member_off{0};
    std::vector<uint32_t> members;
    std::vector<uint32_t> edge_off{0};
    std::vector<uint32_t> edge_i, edge_j;
    std::vector<double> edge_w4; ///< 4 J_ij, the correction's magnitude

    /**
     * Flatten @p chains over @p model.  Fatal (FatalError) when a
     * member is not a variable of the model or a qubit is listed
     * twice, in one chain or in two: either would corrupt the
     * composite delta.
     */
    FlatChains(const ising::CompiledModel &model,
               const std::vector<std::vector<uint32_t>> &chains);

    uint32_t
    size() const
    {
        return static_cast<uint32_t>(member_off.size() - 1);
    }
    /** Σ chain lengths. */
    uint32_t
    totalMembers() const
    {
        return static_cast<uint32_t>(members.size());
    }
};

/**
 * One packed Metropolis sweep at inverse temperature @p beta.  Per
 * variable, a lane with delta <= @p lo accepts without a draw; a lane
 * with lo < delta < @p thresh draws one uniform and accepts by
 * metropolisAcceptU; lanes at or above thresh (inactive lanes hold
 * +inf) neither draw nor flip.  lo = -inf means no floor: every lane
 * below thresh draws, which is SA's loop with thresh =
 * kMaxExpArg / beta.  Chainflip's single-qubit pass passes lo = 0 and
 * thresh = +inf, which is `delta <= 0 || metropolisAccept(rng, beta *
 * delta)`.  Returns the OR of the draw masks — bit l set means lane l
 * drew at least once this sweep (SA's freeze-out signal).
 */
using PackedSweepFn = uint64_t (*)(ising::PackedState &state,
                                   LaneRngs &rngs, double beta,
                                   double lo, double thresh);

/**
 * One packed pass of chainflip's composite moves at inverse
 * temperature @p beta: per chain, every active lane sums its members'
 * deltas in chain order from +0.0, adds ±4J per internal edge (the
 * sign is the XOR of the two spin words), accepts a sum <= 0 with no
 * draw or else by one uniform, and flips every member of the accepted
 * lanes in chain order.  Per lane this is the per-read loop's chain
 * move bit for bit.
 */
using PackedChainPassFn = void (*)(ising::PackedState &state,
                                   LaneRngs &rngs,
                                   const FlatChains &chains,
                                   double beta);

/** Portable engine (always available). */
uint64_t packedSweepScalar(ising::PackedState &state, LaneRngs &rngs,
                           double beta, double lo, double thresh);
void packedChainPassScalar(ising::PackedState &state, LaneRngs &rngs,
                           const FlatChains &chains, double beta);

/** True when the AVX2 engine was compiled in (QAC_ENABLE_AVX2). */
bool packedSweepAvx2Compiled();

/**
 * AVX2 engine.  Only callable when packedSweepAvx2Compiled(); the
 * stub build panics.
 */
uint64_t packedSweepAvx2(ising::PackedState &state, LaneRngs &rngs,
                         double beta, double lo, double thresh);
void packedChainPassAvx2(ising::PackedState &state, LaneRngs &rngs,
                         const FlatChains &chains, double beta);

/** True when the AVX-512 engine was compiled in (QAC_ENABLE_AVX512). */
bool packedSweepAvx512Compiled();

/**
 * AVX-512 engine (8 lanes per vector op, mask-register accept logic).
 * Only callable when packedSweepAvx512Compiled(); the stub build
 * panics.
 */
uint64_t packedSweepAvx512(ising::PackedState &state, LaneRngs &rngs,
                           double beta, double lo, double thresh);
void packedChainPassAvx512(ising::PackedState &state, LaneRngs &rngs,
                           const FlatChains &chains, double beta);

/** One rung of the engine ladder. */
struct PackedEngine
{
    const char *name; ///< "avx512", "avx2" or "scalar"
    PackedSweepFn sweep;
    PackedChainPassFn chain_pass;
};

/**
 * The engine for this host — the highest rung of the ladder that is
 * compiled in, CPU-supported, and not vetoed by environment override:
 * AVX-512, then AVX2, then scalar.  QAC_NO_AVX512 skips the top rung;
 * QAC_NO_AVX2 forces scalar.
 */
const PackedEngine &selectPackedEngine();

} // namespace qac::anneal

#endif // QAC_ANNEAL_PACKED_SWEEP_H
