/**
 * @file
 * The packed engines' shared code (DESIGN.md §13), written once: the
 * chain pass every engine instantiates, and the vector sweep engine the
 * AVX2 and AVX-512 TUs instantiate over their primitive sets.  The
 * scalar engine stays an independent reference.
 *
 * Private to qac/anneal's engine TUs.  Those are compiled for different
 * instruction sets, and any global they define could be the one copy
 * the linker keeps for portable callers.  So instantiate these only
 * with internal-linkage types, and call no inline function of another
 * header from them (at -O0 each becomes an ISA-compiled weak symbol):
 * state comes in as raw planes filled out of line, and sparse lane sets
 * go to the portable drawLanes.  The engine_symbols ctest checks it.
 */

#ifndef QAC_ANNEAL_PACKED_ENGINE_H
#define QAC_ANNEAL_PACKED_ENGINE_H

#include <cmath>
#include <cstring>
#include <limits>

#include "qac/anneal/packed_sweep.h"

namespace qac::anneal::detail {

constexpr uint32_t kLanes = ising::PackedState::kLanes;
constexpr double kInf = std::numeric_limits<double>::infinity();

/** A PackedState's planes and its model's CSR arrays, as raw pointers
 *  (layouts as in ising/packed.h). */
struct Planes
{
    ising::PackedState *state; ///< for its scalar applyFlips
    uint32_t n;
    double *delta, *min_delta;
    uint64_t *bits, *flips;
    uint64_t active;
    const uint32_t *row, *nbr;
    const double *w;
};
Planes planesOf(ising::PackedState &state);

/** FlatChains' arrays as raw pointers. */
struct ChainPlanes
{
    uint32_t count;
    const uint32_t *member_off, *members;
    const uint32_t *edge_off, *edge_i, *edge_j;
    const double *edge_w4;
};
ChainPlanes planesOf(const FlatChains &chains);

/** Lane by lane, each lane of @p draw draws a uniform u from its own
 *  stream and accepts by metropolisAcceptU(u, beta * d[l]); returns
 *  the accept mask. */
uint64_t drawLanes(LaneRngs &rngs, const double *d, uint64_t draw,
                   double beta);

/**
 * The packed chain pass.  Ops supplies two static members:
 *
 *   uint64_t decide(LaneRngs &rngs, const double *d, uint64_t cand,
 *                   double lo, double beta, uint64_t &drew);
 *     lanes of @p cand with d[l] <= lo accept with no draw; the other
 *     lanes of cand (returned in @p drew) draw one uniform and accept
 *     by metropolisAcceptU(u, beta * d[l]).  Returns the accept mask.
 *
 *   void apply(const Planes &p, uint32_t i, uint64_t accept);
 *     PackedState::applyFlips, bit for bit.
 */
template <class Ops>
void
chainPass(const Planes &p, LaneRngs &rngs, const ChainPlanes &c,
          double beta)
{
    alignas(64) double sum[kLanes];
    for (uint32_t ch = 0; ch < c.count; ++ch) {
        // The per-read loop's composite delta, per lane and in its
        // order: members' maintained deltas from +0.0, then
        // (4J) s_i s_j per internal edge.  Multiplying by ±1 only sets
        // the sign, so the product is 4J with its sign bit XORed by
        // "the spins differ" — exact, signed zeros included.
        for (uint32_t l = 0; l < kLanes; ++l)
            sum[l] = 0.0;
        for (uint32_t k = c.member_off[ch]; k < c.member_off[ch + 1]; ++k) {
            const double *dq = p.delta + size_t{c.members[k]} * kLanes;
            for (uint32_t l = 0; l < kLanes; ++l)
                sum[l] += dq[l];
        }
        for (uint32_t e = c.edge_off[ch]; e < c.edge_off[ch + 1]; ++e) {
            const uint64_t differ = p.bits[c.edge_i[e]] ^ p.bits[c.edge_j[e]];
            uint64_t w4;
            std::memcpy(&w4, &c.edge_w4[e], sizeof w4);
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
            Ops::decide(rngs, sum, p.active, 0.0, beta, drew);
        if (accept == 0)
            continue;
        for (uint32_t k = c.member_off[ch]; k < c.member_off[ch + 1]; ++k)
            Ops::apply(p, c.members[k], accept);
    }
}

/**
 * The vector sweep engine over an ISA's primitive set V:
 *
 *   D, U, M         vectors of kWidth doubles and uint64s (GCC vector
 *                   types, so + - * ^ << >> are written here once) and
 *                   the ISA's lane-mask form
 *   kWidth          lanes per vector op
 *   kDrawCut        lane sets at least this large draw in vector groups
 *   kApplyCut       flip sets at least this large apply vectorized
 *   load, loadU, set1
 *   lt, le          lane bits of a < b, a <= b (ordered: NaN lanes are
 *                   clear, so a > b is lt(b, a) and a >= b is le(b, a))
 *   mask(bits)      lane bits -> M
 *   blend(m, a, b)  b in the lanes of m, a elsewhere
 *   storeMasked, storeMaskedU   store only the lanes of m
 *   toDouble(U)     exact u64 -> f64 below 2^53
 *   min, hmin       lane-wise and horizontal min
 *
 * Every multiply, add and compare below has the shape and order of its
 * scalar counterpart (Rng::next, Rng::uniform, metropolisAcceptU,
 * metropolisAcceptTail, PackedState::applyFlips), and the TUs are
 * compiled without FMA contraction, so each lane is bit-identical to
 * the scalar engine.
 */
template <class V>
struct VectorEngine
{
    using D = typename V::D;
    using U = typename V::U;
    using M = typename V::M;
    static constexpr int kWidth = V::kWidth;
    static constexpr int kGroups = static_cast<int>(kLanes) / kWidth;

    /** Group @p g's bits of a 64-lane mask. */
    static unsigned
    group(uint64_t lanes, int g)
    {
        return static_cast<unsigned>(lanes >> (kWidth * g)) &
               ((1u << kWidth) - 1);
    }

    /**
     * Lockstep draw + Metropolis decision for the lanes of @p cand in
     * group @p g: steps the group's xoshiro256** states together,
     * commits the new state only for @p cand, and returns the accept
     * bits.  Only draws both squeeze stages leave undecided pay for
     * exp, lane by lane.
     */
    static unsigned
    drawGroup(LaneRngs &rngs, int g, unsigned cand, D d, D beta_v)
    {
        const int base = kWidth * g;
        U s0 = V::loadU(&rngs.s[0][base]);
        U s1 = V::loadU(&rngs.s[1][base]);
        U s2 = V::loadU(&rngs.s[2][base]);
        U s3 = V::loadU(&rngs.s[3][base]);

        // result = rotl(s1 * 5, 7) * 9, with ×5 and ×9 as exact shift+add.
        const U r5 = (s1 << 2) + s1;
        const U rot = (r5 << 7) | (r5 >> 57);
        const U result = (rot << 3) + rot;
        const U t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = (s3 << 45) | (s3 >> 19);

        // Only candidate lanes consumed a draw.
        const M cm = V::mask(cand);
        V::storeMaskedU(&rngs.s[0][base], cm, s0);
        V::storeMaskedU(&rngs.s[1][base], cm, s1);
        V::storeMaskedU(&rngs.s[2][base], cm, s2);
        V::storeMaskedU(&rngs.s[3][base], cm, s3);

        // Exact (next() >> 11) * 2^-53, as in Rng::uniform.
        const D u = V::toDouble(result >> 11) * 0x1.0p-53;

        // Stage 1 — metropolisAcceptU's squeeze: t = 1 - 0.5*x;
        // below = (t > 0) & (u < t*t); above = u * ((1 + x) +
        // (0.5*x)*x) >= 1.
        const D one = V::set1(1.0);
        const D x = beta_v * d;
        const D halfx = 0.5 * x;
        const D tt = one - halfx;
        const unsigned below =
            V::lt(V::set1(0.0), tt) & V::lt(u, tt * tt);
        const D x2 = halfx * x;
        const unsigned above = V::le(one, u * ((one + x) + x2));
        unsigned accept = below & cand;
        unsigned gap = cand & ~(below | above);
        if (gap == 0)
            return accept;

        // Stage 2 — metropolisAcceptTail's degree-5/4 bounds, valid
        // for x >= 1/16.
        const D x3 = (x2 * x) * (1.0 / 3.0);
        const D x4 = (x3 * x) * 0.25;
        const D x5 = (x4 * x) * 0.2;
        const D lo = ((((one - x) + x2) - x3) + x4) - x5;
        const D hi = (((one + x) + x2) + x3) + x4;
        const unsigned s2ok = gap & V::le(V::set1(0.0625), x);
        const unsigned acc2 = s2ok & V::lt(u, lo);
        const unsigned rej2 = s2ok & V::le(one, u * hi);
        accept |= acc2;
        // Rare: neither stage decided, which leaves metropolisAcceptTail
        // its exp on the same uniform.
        for (gap &= ~(acc2 | rej2); gap != 0; gap &= gap - 1) {
            const int e = __builtin_ctz(gap);
            accept |= unsigned{u[e] < std::exp(-x[e])} << e;
        }
        return accept;
    }

    /** The floor rule over the lanes of @p cand: d <= lo accepts with
     *  no draw, the other lanes draw (@p drew receives them).  lo =
     *  -inf is no floor at all: every candidate draws, as in SA's loop.
     *  Dense draw sets step vector groups, sparse ones go lane by lane;
     *  either is bit-identical per lane, so the cut is pure tuning. */
    static uint64_t
    decide(LaneRngs &rngs, const double *d, uint64_t cand, double lo,
           double beta, uint64_t &drew)
    {
        uint64_t floor = 0;
        if (lo > -kInf) {
            const D lo_v = V::set1(lo);
            for (int g = 0; g < kGroups; ++g)
                floor |= uint64_t{V::le(V::load(d + kWidth * g), lo_v)}
                         << (kWidth * g);
            floor &= cand;
        }
        drew = cand & ~floor;
        if (__builtin_popcountll(drew) < V::kDrawCut)
            return floor | drawLanes(rngs, d, drew, beta);
        uint64_t accept = floor;
        const D beta_v = V::set1(beta);
        for (int g = 0; g < kGroups; ++g)
            if (const unsigned cg = group(drew, g))
                accept |= uint64_t{drawGroup(rngs, g, cg,
                                             V::load(d + kWidth * g),
                                             beta_v)}
                          << (kWidth * g);
        return accept;
    }

    /** Batched flip of variable @p i in the lanes of @p accept —
     *  PackedState::applyFlips bit for bit, with masked vector updates. */
    static void
    apply(const Planes &p, uint32_t i, uint64_t accept)
    {
        if (__builtin_popcountll(accept) < V::kApplyCut) {
            p.state->applyFlips(i, accept);
            return;
        }
        for (uint64_t m = accept; m != 0; m &= m - 1)
            ++p.flips[__builtin_ctzll(m)];
        // Active groups and their lane masks, once per flip set.
        int groups[kGroups];
        M amask[kGroups];
        int ngroups = 0;
        for (int g = 0; g < kGroups; ++g) {
            if (const unsigned ag = group(accept, g)) {
                groups[ngroups] = g;
                amask[ngroups++] = V::mask(ag);
            }
        }
        // Negate the flipped lanes' own deltas (delta_i → -delta_i).
        double *di = p.delta + size_t{i} * kLanes;
        for (int a = 0; a < ngroups; ++a) {
            double *dg = di + kWidth * groups[a];
            V::storeMasked(dg, amask[a], -V::load(dg));
        }
        const uint64_t bits_new = (p.bits[i] ^= accept);
        for (uint32_t k = p.row[i]; k < p.row[i + 1]; ++k) {
            const uint32_t j = p.nbr[k];
            // Same-spin lanes gain -4w, differing lanes +4w — the exact
            // values LocalFieldState::flip adds (see
            // PackedState::applyFlips); negation is exact for signed
            // zeros too.
            const D w4 = V::set1(-4.0 * p.w[k]);
            const uint64_t differ = bits_new ^ p.bits[j];
            double *dj = p.delta + size_t{j} * kLanes;
            for (int a = 0; a < ngroups; ++a) {
                double *dg = dj + kWidth * groups[a];
                const M dm = V::mask(group(differ, groups[a]));
                V::storeMasked(dg, amask[a],
                               V::load(dg) + V::blend(dm, w4, -w4));
            }
            p.min_delta[j] = -kInf;
        }
        p.min_delta[i] = -kInf;
    }

    /** One packed sweep (PackedSweepFn's contract). */
    static uint64_t
    sweep(const Planes &p, LaneRngs &rngs, double beta, double lo,
          double thresh)
    {
        const D thresh_v = V::set1(thresh);
        uint64_t drew = 0;
        for (uint32_t i = 0; i < p.n; ++i) {
            // One compare retires all 64 lanes while every delta at i
            // sits at or above the draw threshold.
            if (p.min_delta[i] >= thresh)
                continue;
            const double *di = p.delta + size_t{i} * kLanes;
            // Candidate scan.  Flips land after all of i's draws, so
            // the deltas at i are stable throughout.
            uint64_t cand = 0;
            D mn = V::set1(kInf);
            for (int g = 0; g < kGroups; ++g) {
                const D d = V::load(di + kWidth * g);
                cand |= uint64_t{V::lt(d, thresh_v)} << (kWidth * g);
                mn = V::min(mn, d);
            }
            uint64_t accept = 0;
            if (cand != 0) {
                uint64_t drew_i = 0;
                accept = decide(rngs, di, cand, lo, beta, drew_i);
                drew |= drew_i;
            }
            // The scanned min survives the sweep only without a flip at
            // i; every flip path dirties min_delta[i] to -inf instead,
            // so the reduction is deferred to here.
            if (accept == 0)
                p.min_delta[i] = V::hmin(mn);
            else
                apply(p, i, accept);
        }
        return drew;
    }
};

} // namespace qac::anneal::detail

#endif // QAC_ANNEAL_PACKED_ENGINE_H
