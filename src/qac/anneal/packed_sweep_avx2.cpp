/**
 * @file
 * AVX2 packed sweep engine (DESIGN.md §13).
 *
 * Compiled with -mavx2 and nothing more when QAC_ENABLE_AVX2 is on —
 * deliberately NOT -mfma: without FMA instructions the compiler
 * cannot contract a*b+c, so every vector multiply/add/compare here
 * has bit-identical IEEE semantics to the scalar engine's arithmetic.
 * That, plus an exact shift-add vector xoshiro step (×5 and ×9 are
 * shift+add; the u64→f64 conversion is exact below 2^53), is what
 * lets engine selection stay invisible in results.
 *
 * When QAC_ENABLE_AVX2 is off this TU compiles to a stub that reports
 * the engine absent.
 */

#include "qac/anneal/packed_sweep.h"

#if defined(QAC_PACKED_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_chain_pass.h"

namespace qac::anneal {

namespace {

constexpr uint32_t kLanes = ising::PackedState::kLanes;
constexpr int kGroups = static_cast<int>(kLanes) / 4;

/** Candidates at or above this popcount draw via the lockstep vector
 *  path; sparser masks iterate set bits scalar-wise.  Either path is
 *  bit-identical per lane, so the cut is pure tuning. */
constexpr int kVectorDrawCut = 12;
/** Same idea for the batched flip application. */
constexpr int kVectorApplyCut = 6;

/** All-ones lane mask for the 4 lanes of group @p g whose bit is set
 *  in @p mask. */
inline __m256i
laneMask4(uint64_t mask, int g)
{
    const __m256i sel = _mm256_set_epi64x(8, 4, 2, 1);
    const __m256i m = _mm256_set1_epi64x(
        static_cast<long long>((mask >> (4 * g)) & 0xf));
    return _mm256_cmpeq_epi64(_mm256_and_si256(m, sel), sel);
}

/** Exact u64 → f64 for values below 2^53 (we convert next() >> 11). */
inline __m256d
u64ToDouble(__m256i v)
{
    // Magic-number split: hi32*2^32 via the 2^84 exponent window, lo32
    // via the 2^52 window; both parts and their sum are exact for
    // v < 2^53.
    __m256i hi = _mm256_srli_epi64(v, 32);
    hi = _mm256_or_si256(
        hi, _mm256_castpd_si256(
                _mm256_set1_pd(19342813113834066795298816.))); // 2^84
    const __m256i lo = _mm256_blend_epi16(
        v,
        _mm256_castpd_si256(_mm256_set1_pd(4503599627370496.)), // 2^52
        0xcc);
    const __m256d f = _mm256_sub_pd(
        _mm256_castsi256_pd(hi),
        _mm256_set1_pd(19342813118337666422669312.)); // 2^84 + 2^52
    return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

/**
 * Lockstep draw + Metropolis decision for one 4-lane group.  Steps
 * the group's four xoshiro states vectorized, commits new state only
 * for candidate lanes, and returns the 4-bit accept mask.  Gap lanes
 * (squeeze undecided) fall back to the scalar exp test on the same
 * uniform.
 */
inline int
drawGroup4(LaneRngs &rngs, int g, int cand_nib, const double *di,
           __m256d beta_v)
{
    const int base = 4 * g;
    // cand_nib is already shifted down to the low 4 bits, so select
    // against group 0 of it.
    const __m256i cm = laneMask4(static_cast<uint64_t>(cand_nib), 0);

    __m256i s0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(&rngs.s[0][base]));
    __m256i s1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(&rngs.s[1][base]));
    __m256i s2 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(&rngs.s[2][base]));
    __m256i s3 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(&rngs.s[3][base]));
    const __m256i os0 = s0, os1 = s1, os2 = s2, os3 = s3;

    // result = rotl(s1 * 5, 7) * 9, with ×5 and ×9 as exact shift+add.
    const __m256i r5 =
        _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
    const __m256i rot = _mm256_or_si256(_mm256_slli_epi64(r5, 7),
                                        _mm256_srli_epi64(r5, 57));
    const __m256i result =
        _mm256_add_epi64(_mm256_slli_epi64(rot, 3), rot);

    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45),
                         _mm256_srli_epi64(s3, 19));

    // Only candidate lanes consumed a draw; the rest keep their state.
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(&rngs.s[0][base]),
                        _mm256_blendv_epi8(os0, s0, cm));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(&rngs.s[1][base]),
                        _mm256_blendv_epi8(os1, s1, cm));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(&rngs.s[2][base]),
                        _mm256_blendv_epi8(os2, s2, cm));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(&rngs.s[3][base]),
                        _mm256_blendv_epi8(os3, s3, cm));

    const __m256d u =
        _mm256_mul_pd(u64ToDouble(_mm256_srli_epi64(result, 11)),
                      _mm256_set1_pd(0x1.0p-53));

    // metropolisAcceptU, vectorized with the identical expression
    // shapes: t = 1 - 0.5*x; below = (t > 0) & (u < t*t);
    // above = u * ((1 + x) + (0.5*x)*x) >= 1.
    const __m256d x =
        _mm256_mul_pd(beta_v, _mm256_loadu_pd(di + base));
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d tt = _mm256_sub_pd(one, _mm256_mul_pd(half, x));
    const __m256d below = _mm256_and_pd(
        _mm256_cmp_pd(tt, _mm256_setzero_pd(), _CMP_GT_OQ),
        _mm256_cmp_pd(u, _mm256_mul_pd(tt, tt), _CMP_LT_OQ));
    const __m256d poly = _mm256_add_pd(
        _mm256_add_pd(one, x),
        _mm256_mul_pd(_mm256_mul_pd(half, x), x));
    const __m256d above =
        _mm256_cmp_pd(_mm256_mul_pd(u, poly), one, _CMP_GE_OQ);

    int accept_nib = _mm256_movemask_pd(below) & cand_nib;
    int gap = cand_nib &
              ~_mm256_movemask_pd(_mm256_or_pd(below, above));
    if (gap != 0) {
        // Rare mid-squeeze draws: same uniform, scalar tail.
        alignas(32) double ua[4], xa[4];
        _mm256_storeu_pd(ua, u);
        _mm256_storeu_pd(xa, x);
        for (; gap != 0; gap &= gap - 1) {
            const int e = __builtin_ctz(static_cast<unsigned>(gap));
            if (metropolisAcceptTail(ua[e], xa[e]))
                accept_nib |= 1 << e;
        }
    }
    return accept_nib;
}

/**
 * Draw + decide for the lanes of @p draw, every one of which draws:
 * dense masks step 4-lane groups in lockstep, sparse ones iterate set
 * bits scalar-wise.  Either path is bit-identical per lane.
 */
inline uint64_t
drawLanes(LaneRngs &rngs, const double *d, uint64_t draw, double beta)
{
    uint64_t accept = 0;
    if (__builtin_popcountll(draw) >= kVectorDrawCut) {
        const __m256d beta_v = _mm256_set1_pd(beta);
        for (int g = 0; g < kGroups; ++g) {
            const int nib = static_cast<int>((draw >> (4 * g)) & 0xf);
            if (nib == 0)
                continue;
            accept |= static_cast<uint64_t>(
                          drawGroup4(rngs, g, nib, d, beta_v))
                      << (4 * g);
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
struct Avx2Ops
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
            const __m256d lo_v = _mm256_set1_pd(lo);
            for (int g = 0; g < kGroups; ++g)
                floor |= static_cast<uint64_t>(_mm256_movemask_pd(
                             _mm256_cmp_pd(_mm256_loadu_pd(d + 4 * g),
                                           lo_v, _CMP_LE_OQ)))
                         << (4 * g);
            floor &= cand;
        }
        drew = cand & ~floor;
        return floor | drawLanes(rngs, d, drew, beta);
    }

    /** Batched flip of variable @p i in the lanes of @p accept —
     *  PackedState::applyFlips bit for bit, with blended vector updates. */
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
        const __m256d sign_v = _mm256_set1_pd(-0.0);
        const double inf = std::numeric_limits<double>::infinity();
        double *di = delta + size_t{i} * kLanes;

        for (uint64_t m = accept; m != 0; m &= m - 1)
            ++flip_ctr[__builtin_ctzll(m)];
        // Active groups and their accept lane masks, once per flip set.
        int groups[kGroups];
        __m256i amask[kGroups];
        int ngroups = 0;
        for (int g = 0; g < kGroups; ++g) {
            if (((accept >> (4 * g)) & 0xf) != 0) {
                groups[ngroups] = g;
                amask[ngroups] = laneMask4(accept, g);
                ++ngroups;
            }
        }
        // Negate the flipped lanes' own deltas (delta_i → -delta_i).
        for (int a = 0; a < ngroups; ++a) {
            const int g = groups[a];
            const __m256d old = _mm256_loadu_pd(di + 4 * g);
            const __m256d neg = _mm256_xor_pd(old, sign_v);
            _mm256_storeu_pd(
                di + 4 * g,
                _mm256_blendv_pd(old, neg, _mm256_castsi256_pd(amask[a])));
        }
        const uint64_t bits_new = (bits[i] ^= accept);
        const uint32_t end = row[i + 1];
        for (uint32_t k = row[i]; k < end; ++k) {
            const uint32_t j = nbr[k];
            // Same-spin lanes gain -4w, differing lanes +4w — the exact
            // values LocalFieldState::flip adds (see
            // PackedState::applyFlips); the sign select is an XOR of the
            // sign bit, exact for signed zeros too.
            const __m256d w4_v = _mm256_set1_pd(-4.0 * w[k]);
            const uint64_t differ = bits_new ^ bits[j];
            double *dj = delta + size_t{j} * kLanes;
            for (int a = 0; a < ngroups; ++a) {
                const int g = groups[a];
                const __m256d dm = _mm256_castsi256_pd(laneMask4(differ, g));
                const __m256d addend =
                    _mm256_xor_pd(w4_v, _mm256_and_pd(dm, sign_v));
                const __m256d old = _mm256_loadu_pd(dj + 4 * g);
                const __m256d upd = _mm256_add_pd(old, addend);
                _mm256_storeu_pd(
                    dj + 4 * g,
                    _mm256_blendv_pd(old, upd,
                                     _mm256_castsi256_pd(amask[a])));
            }
            min_delta[j] = -inf;
        }
        min_delta[i] = -inf;
    }
};

} // namespace

bool
packedSweepAvx2Compiled()
{
    return true;
}

uint64_t
packedSweepAvx2(ising::PackedState &state, LaneRngs &rngs, double beta,
                double lo, double thresh)
{
    const uint32_t n = static_cast<uint32_t>(state.model().numVars());
    double *min_delta = state.minDelta();
    double *delta = state.deltaPlane();

    const __m256d thresh_v = _mm256_set1_pd(thresh);
    const double inf = std::numeric_limits<double>::infinity();

    uint64_t drew = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (min_delta[i] >= thresh)
            continue;
        double *di = delta + size_t{i} * kLanes;

        // ---- candidate scan + exact min refresh
        uint64_t cand = 0;
        __m256d mn_v = _mm256_set1_pd(inf);
        for (int g = 0; g < kGroups; ++g) {
            const __m256d d = _mm256_loadu_pd(di + 4 * g);
            cand |= static_cast<uint64_t>(_mm256_movemask_pd(
                        _mm256_cmp_pd(d, thresh_v, _CMP_LT_OQ)))
                    << (4 * g);
            mn_v = _mm256_min_pd(mn_v, d);
        }
        {
            const __m128d lo2 = _mm256_castpd256_pd128(mn_v);
            const __m128d hi2 = _mm256_extractf128_pd(mn_v, 1);
            const __m128d m2 = _mm_min_pd(lo2, hi2);
            const __m128d m1 =
                _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
            min_delta[i] = _mm_cvtsd_f64(m1);
        }
        if (cand == 0)
            continue;

        // ---- floor + per-lane draws → accept mask, then the flip
        uint64_t drew_i = 0;
        const uint64_t accept =
            Avx2Ops::decide(rngs, di, cand, lo, beta, drew_i);
        drew |= drew_i;
        if (accept != 0)
            Avx2Ops::apply(state, i, accept);
    }
    return drew;
}

void
packedChainPassAvx2(ising::PackedState &state, LaneRngs &rngs,
                    const FlatChains &chains, double beta)
{
    detail::chainPass<Avx2Ops>(state, rngs, chains, beta);
}

} // namespace qac::anneal

#else // stub build: engine absent

#include "qac/util/logging.h"

namespace qac::anneal {

bool
packedSweepAvx2Compiled()
{
    return false;
}

uint64_t
packedSweepAvx2(ising::PackedState &, LaneRngs &, double, double,
                double)
{
    panic("packedSweepAvx2: built without QAC_ENABLE_AVX2");
}

void
packedChainPassAvx2(ising::PackedState &, LaneRngs &, const FlatChains &,
                    double)
{
    panic("packedChainPassAvx2: built without QAC_ENABLE_AVX2");
}

} // namespace qac::anneal

#endif
