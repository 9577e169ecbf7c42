/**
 * @file
 * AVX-512 packed sweep engine (DESIGN.md §13).
 *
 * Eight replica lanes per vector op, and the accept logic lives in
 * mask registers: candidate masks come straight out of
 * _mm512_cmp_pd_mask, per-lane RNG state commits are masked stores,
 * and the flip application is a masked add — none of the nibble
 * expansion / blendv selection the AVX2 engine needs.  The u64→f64
 * step of the uniform is the native _mm512_cvtepu64_pd, exact below
 * 2^53 like the scalar conversion.
 *
 * Compiled with -mavx512f -mavx512dq and -ffp-contract=off — AVX-512F
 * brings FMA instructions with it, and a contracted a*b+c would break
 * the bitwise scalar/vector parity contract.  Every multiply, add and
 * compare here mirrors the scalar engine's expression shapes
 * (metropolisAcceptU + metropolisAcceptTail) exactly, so the engine
 * is bit-identical to the scalar and AVX2 ones per lane.
 *
 * When QAC_ENABLE_AVX512 is off this TU compiles to a stub that
 * reports the engine absent.
 */

#include "qac/anneal/packed_sweep.h"

#if defined(QAC_PACKED_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_chain_pass.h"

namespace qac::anneal {

namespace {

constexpr uint32_t kLanes = ising::PackedState::kLanes;
constexpr int kGroups = static_cast<int>(kLanes) / 8;

/** Candidates at or above this popcount draw via the lockstep vector
 *  path; sparser masks iterate set bits scalar-wise.  Either path is
 *  bit-identical per lane, so the cut is pure tuning. */
constexpr int kVectorDrawCut = 8;
/** Same idea for the batched flip application. */
constexpr int kVectorApplyCut = 4;

/**
 * Horizontal min of 8 lanes.  Explicit shuffle tree rather than
 * _mm512_reduce_min_pd: GCC's header implementation starts from an
 * undefined vector and trips -Wmaybe-uninitialized when inlined.  min
 * is associative, and the summary tolerates ±0.0 ordering differences
 * (DESIGN.md §13), so any reduction order is fine.
 */
inline double
reduceMin8(__m512d v)
{
    const __m256d m4 = _mm256_min_pd(_mm512_castpd512_pd256(v),
                                     _mm512_extractf64x4_pd(v, 1));
    const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(m4),
                                  _mm256_extractf128_pd(m4, 1));
    const __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
    return _mm_cvtsd_f64(m1);
}

/**
 * Lockstep draw + Metropolis decision for one 8-lane group.  Steps
 * the group's xoshiro states vectorized, commits new state only for
 * candidate lanes (one masked store per state word), and returns the
 * 8-bit accept mask.  The decision replicates metropolisAcceptU's two
 * squeeze stages with identical expression shapes; only the rare
 * draws both stages leave undecided fall back to the scalar tail.
 */
inline unsigned
drawGroup8(LaneRngs &rngs, int g, unsigned cand, __m512d d,
           __m512d beta_v)
{
    const int base = 8 * g;
    const __mmask8 cm = static_cast<__mmask8>(cand);

    __m512i s0 = _mm512_loadu_si512(&rngs.s[0][base]);
    __m512i s1 = _mm512_loadu_si512(&rngs.s[1][base]);
    __m512i s2 = _mm512_loadu_si512(&rngs.s[2][base]);
    __m512i s3 = _mm512_loadu_si512(&rngs.s[3][base]);

    // result = rotl(s1 * 5, 7) * 9, with ×5 and ×9 as exact shift+add.
    const __m512i r5 = _mm512_add_epi64(_mm512_slli_epi64(s1, 2), s1);
    const __m512i rot = _mm512_or_si512(_mm512_slli_epi64(r5, 7),
                                        _mm512_srli_epi64(r5, 57));
    const __m512i result =
        _mm512_add_epi64(_mm512_slli_epi64(rot, 3), rot);

    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_or_si512(_mm512_slli_epi64(s3, 45),
                         _mm512_srli_epi64(s3, 19));

    // Only candidate lanes consumed a draw; masked stores leave the
    // other lanes' state untouched.  Full-group candidacy (the common
    // case at hot betas) takes plain stores.
    if (cand == 0xffu) {
        _mm512_storeu_si512(&rngs.s[0][base], s0);
        _mm512_storeu_si512(&rngs.s[1][base], s1);
        _mm512_storeu_si512(&rngs.s[2][base], s2);
        _mm512_storeu_si512(&rngs.s[3][base], s3);
    } else {
        _mm512_mask_storeu_epi64(&rngs.s[0][base], cm, s0);
        _mm512_mask_storeu_epi64(&rngs.s[1][base], cm, s1);
        _mm512_mask_storeu_epi64(&rngs.s[2][base], cm, s2);
        _mm512_mask_storeu_epi64(&rngs.s[3][base], cm, s3);
    }

    // Exact (next() >> 11) * 2^-53, as in Rng::uniform.
    const __m512d u = _mm512_mul_pd(
        _mm512_cvtepu64_pd(_mm512_srli_epi64(result, 11)),
        _mm512_set1_pd(0x1.0p-53));

    // Stage 1 — metropolisAcceptU's squeeze, identical shapes:
    // t = 1 - 0.5*x; below = (t > 0) & (u < t*t);
    // above = u * ((1 + x) + (0.5*x)*x) >= 1.
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d x = _mm512_mul_pd(beta_v, d);
    const __m512d halfx = _mm512_mul_pd(_mm512_set1_pd(0.5), x);
    const __m512d tt = _mm512_sub_pd(one, halfx);
    const __mmask8 below =
        _mm512_cmp_pd_mask(tt, _mm512_setzero_pd(), _CMP_GT_OQ) &
        _mm512_cmp_pd_mask(u, _mm512_mul_pd(tt, tt), _CMP_LT_OQ);
    const __m512d x2 = _mm512_mul_pd(halfx, x); // (0.5*x)*x
    const __m512d poly = _mm512_add_pd(_mm512_add_pd(one, x), x2);
    const __mmask8 above = _mm512_cmp_pd_mask(
        _mm512_mul_pd(u, poly), one, _CMP_GE_OQ);

    unsigned accept = below & cand;
    unsigned gap = cand & ~unsigned(below | above);
    if (gap == 0)
        return accept;

    // Stage 2 — metropolisAcceptTail's degree-5/4 bounds, identical
    // shapes, valid for x >= 1/16.
    const __mmask8 s2ok = _mm512_cmp_pd_mask(
        x, _mm512_set1_pd(0.0625), _CMP_GE_OQ);
    const __m512d x3 = _mm512_mul_pd(_mm512_mul_pd(x2, x),
                                     _mm512_set1_pd(1.0 / 3.0));
    const __m512d x4 = _mm512_mul_pd(_mm512_mul_pd(x3, x),
                                     _mm512_set1_pd(0.25));
    const __m512d x5 = _mm512_mul_pd(_mm512_mul_pd(x4, x),
                                     _mm512_set1_pd(0.2));
    const __m512d lo = _mm512_sub_pd(
        _mm512_add_pd(
            _mm512_sub_pd(
                _mm512_add_pd(_mm512_sub_pd(one, x), x2), x3),
            x4),
        x5);
    const __m512d hi = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(one, x), x2), x3),
        x4);
    const unsigned acc2 =
        gap & s2ok & _mm512_cmp_pd_mask(u, lo, _CMP_LT_OQ);
    const unsigned rej2 =
        gap & s2ok &
        _mm512_cmp_pd_mask(_mm512_mul_pd(u, hi), one, _CMP_GE_OQ);
    accept |= acc2;
    gap &= ~(acc2 | rej2);
    if (gap != 0) {
        // Rare: neither stage decided — same uniform, scalar tail.
        alignas(64) double ua[8], xa[8];
        _mm512_storeu_pd(ua, u);
        _mm512_storeu_pd(xa, x);
        for (; gap != 0; gap &= gap - 1) {
            const int e = __builtin_ctz(gap);
            if (metropolisAcceptTail(ua[e], xa[e]))
                accept |= 1u << e;
        }
    }
    return accept;
}

/**
 * Draw + decide for the lanes of @p draw, every one of which draws:
 * dense masks step 8-lane groups in lockstep, sparse ones iterate set
 * bits scalar-wise.  Either path is bit-identical per lane.
 */
inline uint64_t
drawLanes(LaneRngs &rngs, const double *d, uint64_t draw, double beta)
{
    uint64_t accept = 0;
    if (__builtin_popcountll(draw) >= kVectorDrawCut) {
        const __m512d beta_v = _mm512_set1_pd(beta);
        for (int g = 0; g < kGroups; ++g) {
            const unsigned cand =
                static_cast<unsigned>((draw >> (8 * g)) & 0xff);
            if (cand == 0)
                continue;
            accept |= uint64_t{drawGroup8(rngs, g, cand,
                                          _mm512_loadu_pd(d + 8 * g),
                                          beta_v)}
                      << (8 * g);
        }
    } else {
        for (uint64_t m = draw; m != 0; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(__builtin_ctzll(m));
            const double u = rngs.uniform(l);
            accept |= uint64_t{metropolisAcceptU(u, beta * d[l])} << l;
        }
    }
    return accept;
}

/** The engine's draw + decide and batched flip apply, used by its
 *  sweep and by the shared chain pass. */
struct Avx512Ops
{
    /**
     * The floor rule over the lanes of @p cand: d <= lo accepts with
     * no draw, the other lanes draw (@p drew receives them).  lo = -inf
     * is no floor at all: every candidate draws, as in SA's loop.
     */
    static uint64_t
    decide(LaneRngs &rngs, const double *d, uint64_t cand, double lo,
           double beta, uint64_t &drew)
    {
        uint64_t floor = 0;
        if (lo > -std::numeric_limits<double>::infinity()) {
            const __m512d lo_v = _mm512_set1_pd(lo);
            for (int g = 0; g < kGroups; ++g)
                floor |= uint64_t{_mm512_cmp_pd_mask(
                             _mm512_loadu_pd(d + 8 * g), lo_v,
                             _CMP_LE_OQ)}
                         << (8 * g);
            floor &= cand;
        }
        drew = cand & ~floor;
        return floor | drawLanes(rngs, d, drew, beta);
    }

    /** Batched flip of variable @p i in the lanes of @p accept —
     *  PackedState::applyFlips bit for bit, with masked vector updates. */
    static void
    apply(ising::PackedState &state, uint32_t i, uint64_t accept)
    {
        if (__builtin_popcountll(accept) < kVectorApplyCut) {
            state.applyFlips(i, accept);
            return;
        }
        const auto &model = state.model();
        const uint32_t *nbr = model.neighbors().data();
        const double *w = model.weights().data();
        const uint32_t *row = model.rowOffsets().data();
        double *min_delta = state.minDelta();
        double *delta = state.deltaPlane();
        uint64_t *bits = state.spinBits();
        uint64_t *flip_ctr = state.laneFlipCounters();
        const __m512d sign_v = _mm512_set1_pd(-0.0);
        const double inf = std::numeric_limits<double>::infinity();
        double *di = delta + size_t{i} * kLanes;

        for (uint64_t m = accept; m != 0; m &= m - 1)
            ++flip_ctr[__builtin_ctzll(m)];
        // Active groups and their accept lane masks, once per flip set.
        int groups[kGroups];
        __mmask8 amask[kGroups];
        int ngroups = 0;
        for (int g = 0; g < kGroups; ++g) {
            const __mmask8 am =
                static_cast<__mmask8>((accept >> (8 * g)) & 0xff);
            if (am != 0) {
                groups[ngroups] = g;
                amask[ngroups] = am;
                ++ngroups;
            }
        }
        // Negate the flipped lanes' own deltas (delta_i → -delta_i).
        for (int a = 0; a < ngroups; ++a) {
            const int g = groups[a];
            const __m512d old = _mm512_loadu_pd(di + 8 * g);
            _mm512_mask_storeu_pd(di + 8 * g, amask[a],
                                  _mm512_xor_pd(old, sign_v));
        }
        const uint64_t bits_new = (bits[i] ^= accept);
        const uint32_t end = row[i + 1];
        for (uint32_t k = row[i]; k < end; ++k) {
            const uint32_t j = nbr[k];
            // Same-spin lanes gain -4w, differing lanes +4w — the exact
            // values LocalFieldState::flip adds (see
            // PackedState::applyFlips); the sign select is an XOR of the
            // sign bit, exact for signed zeros too.
            const __m512d w4_v = _mm512_set1_pd(-4.0 * w[k]);
            const uint64_t differ = bits_new ^ bits[j];
            double *dj = delta + size_t{j} * kLanes;
            for (int a = 0; a < ngroups; ++a) {
                const int g = groups[a];
                const __mmask8 dm =
                    static_cast<__mmask8>((differ >> (8 * g)) & 0xff);
                const __m512d addend =
                    _mm512_mask_xor_pd(w4_v, dm, w4_v, sign_v);
                const __m512d upd =
                    _mm512_add_pd(_mm512_loadu_pd(dj + 8 * g), addend);
                _mm512_mask_storeu_pd(dj + 8 * g, amask[a], upd);
            }
            min_delta[j] = -inf;
        }
        min_delta[i] = -inf;
    }
};

} // namespace

bool
packedSweepAvx512Compiled()
{
    return true;
}

uint64_t
packedSweepAvx512(ising::PackedState &state, LaneRngs &rngs,
                  double beta, double lo, double thresh)
{
    const uint32_t n = static_cast<uint32_t>(state.model().numVars());
    double *min_delta = state.minDelta();
    double *delta = state.deltaPlane();

    const __m512d thresh_v = _mm512_set1_pd(thresh);
    const double inf = std::numeric_limits<double>::infinity();

    uint64_t drew = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (min_delta[i] >= thresh)
            continue;
        double *di = delta + size_t{i} * kLanes;

        // ---- candidate scan + exact min refresh (flips land after all
        // of variable i's draws, so the deltas at i are stable
        // throughout).
        uint64_t cand = 0;
        __m512d mn_v = _mm512_set1_pd(inf);
        for (int g = 0; g < kGroups; ++g) {
            const __m512d d = _mm512_loadu_pd(di + 8 * g);
            cand |= uint64_t{_mm512_cmp_pd_mask(d, thresh_v,
                                                _CMP_LT_OQ)}
                    << (8 * g);
            mn_v = _mm512_min_pd(mn_v, d);
        }
        if (cand == 0) {
            min_delta[i] = reduceMin8(mn_v);
            continue;
        }

        // ---- floor + per-lane draws → accept mask
        uint64_t drew_i = 0;
        const uint64_t accept =
            Avx512Ops::decide(rngs, di, cand, lo, beta, drew_i);
        drew |= drew_i;
        if (accept == 0) {
            // No flip at i: the scanned min survives the sweep.  (On
            // the flip path min_delta[i] is dirtied to -inf, so the
            // reduction would be wasted work — deferring it here skips
            // it for most hot-phase variables.)
            min_delta[i] = reduceMin8(mn_v);
            continue;
        }
        Avx512Ops::apply(state, i, accept);
    }
    return drew;
}

void
packedChainPassAvx512(ising::PackedState &state, LaneRngs &rngs,
                      const FlatChains &chains, double beta)
{
    detail::chainPass<Avx512Ops>(state, rngs, chains, beta);
}

} // namespace qac::anneal

#else // stub build: engine absent

#include "qac/util/logging.h"

namespace qac::anneal {

bool
packedSweepAvx512Compiled()
{
    return false;
}

uint64_t
packedSweepAvx512(ising::PackedState &, LaneRngs &, double, double,
                  double)
{
    panic("packedSweepAvx512: built without QAC_ENABLE_AVX512");
}

void
packedChainPassAvx512(ising::PackedState &, LaneRngs &,
                      const FlatChains &, double)
{
    panic("packedChainPassAvx512: built without QAC_ENABLE_AVX512");
}

} // namespace qac::anneal

#endif
