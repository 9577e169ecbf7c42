/**
 * @file
 * AVX-512 packed sweep engine (DESIGN.md §13): the shared VectorEngine
 * (packed_engine.h) over 8-lane AVX-512 primitives.  Lane masks are
 * mask registers straight out of _mm512_cmp_pd_mask, RNG commits and
 * flips are masked stores, and u64→f64 is the native
 * _mm512_cvtepu64_pd, exact below 2^53 like the scalar conversion.
 *
 * Compiled with -mavx512f -mavx512dq and -ffp-contract=off — AVX-512F
 * brings FMA instructions with it, and a contracted a*b+c would break
 * the bitwise scalar/vector parity contract.
 *
 * When QAC_ENABLE_AVX512 is off this TU compiles to a stub that
 * reports the engine absent.
 */

#include "qac/anneal/packed_sweep.h"

#if defined(QAC_PACKED_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

#include "qac/anneal/packed_engine.h"

namespace qac::anneal {

namespace {

struct Avx512
{
    using D = __m512d;
    using U = unsigned long long __attribute__((vector_size(64)));
    using M = __mmask8;
    static constexpr int kWidth = 8;
    static constexpr int kDrawCut = 8;
    static constexpr int kApplyCut = 4;

    static D load(const double *p) { return _mm512_loadu_pd(p); }
    static U loadU(const uint64_t *p) { return U(_mm512_loadu_si512(p)); }
    static D set1(double x) { return _mm512_set1_pd(x); }
    // A mask register is lane bits already.
    static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
    static M le(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
    static M mask(unsigned bits) { return static_cast<M>(bits); }
    static D blend(M m, D a, D b) { return _mm512_mask_blend_pd(m, a, b); }
    static void
    storeMasked(double *p, M m, D v)
    {
        _mm512_mask_storeu_pd(p, m, v);
    }
    static void
    storeMaskedU(uint64_t *p, M m, U v)
    {
        _mm512_mask_storeu_epi64(p, m, __m512i(v));
    }
    static D toDouble(U v) { return _mm512_cvtepu64_pd(__m512i(v)); }
    static D min(D a, D b) { return _mm512_min_pd(a, b); }
    /** Explicit shuffle tree rather than _mm512_reduce_min_pd: GCC's
     *  header implementation starts from an undefined vector and trips
     *  -Wmaybe-uninitialized when inlined.  The summary tolerates ±0.0
     *  ordering differences (DESIGN.md §13), so any order is fine. */
    static double
    hmin(D v)
    {
        const __m256d m4 = _mm256_min_pd(_mm512_castpd512_pd256(v),
                                         _mm512_extractf64x4_pd(v, 1));
        const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(m4),
                                      _mm256_extractf128_pd(m4, 1));
        return _mm_cvtsd_f64(_mm_min_sd(m2, _mm_unpackhi_pd(m2, m2)));
    }
};

using Engine = detail::VectorEngine<Avx512>;

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
    return Engine::sweep(detail::planesOf(state), rngs, beta, lo, thresh);
}

void
packedChainPassAvx512(ising::PackedState &state, LaneRngs &rngs,
                      const FlatChains &chains, double beta)
{
    detail::chainPass<Engine>(detail::planesOf(state), rngs,
                              detail::planesOf(chains), beta);
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
