/**
 * @file
 * AVX2 packed sweep engine (DESIGN.md §13): the shared VectorEngine
 * (packed_engine.h) over 4-lane AVX2 primitives, blendv for masks.
 *
 * Compiled with -mavx2 and nothing more when QAC_ENABLE_AVX2 is on —
 * deliberately NOT -mfma: without FMA instructions the compiler
 * cannot contract a*b+c, so every vector multiply/add/compare has
 * bit-identical IEEE semantics to the scalar engine's arithmetic.
 *
 * When QAC_ENABLE_AVX2 is off this TU compiles to a stub that reports
 * the engine absent.
 */

#include "qac/anneal/packed_sweep.h"

#if defined(QAC_PACKED_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "qac/anneal/packed_engine.h"

namespace qac::anneal {

namespace {

struct Avx2
{
    using D = __m256d;
    using U = unsigned long long __attribute__((vector_size(32)));
    using M = __m256i; ///< all-ones in the selected lanes
    static constexpr int kWidth = 4;
    static constexpr int kDrawCut = 12;
    static constexpr int kApplyCut = 6;

    static D load(const double *p) { return _mm256_loadu_pd(p); }
    static U
    loadU(const uint64_t *p)
    {
        return U(_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
    }
    static D set1(double x) { return _mm256_set1_pd(x); }
    static unsigned
    lt(D a, D b)
    {
        return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LT_OQ));
    }
    static unsigned
    le(D a, D b)
    {
        return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LE_OQ));
    }
    static M
    mask(unsigned bits)
    {
        const __m256i sel = _mm256_set_epi64x(8, 4, 2, 1);
        return _mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_set1_epi64x(bits), sel), sel);
    }
    static D
    blend(M m, D a, D b)
    {
        return _mm256_blendv_pd(a, b, _mm256_castsi256_pd(m));
    }
    static void
    storeMasked(double *p, M m, D v)
    {
        _mm256_storeu_pd(p, blend(m, load(p), v));
    }
    static void
    storeMaskedU(uint64_t *p, M m, U v)
    {
        __m256i *q = reinterpret_cast<__m256i *>(p);
        _mm256_storeu_si256(
            q, _mm256_blendv_epi8(_mm256_loadu_si256(q), __m256i(v), m));
    }
    /** Magic-number split: hi32 * 2^32 via the 2^84 exponent window,
     *  lo32 via the 2^52 window; both parts and their sum are exact
     *  for v < 2^53. */
    static D
    toDouble(U v)
    {
        const __m256i hi = _mm256_or_si256(
            __m256i(v >> 32),
            _mm256_castpd_si256(_mm256_set1_pd(0x1.0p84)));
        const __m256i lo = _mm256_blend_epi16(
            __m256i(v), _mm256_castpd_si256(_mm256_set1_pd(0x1.0p52)),
            0xcc);
        return (_mm256_castsi256_pd(hi) - (0x1.0p84 + 0x1.0p52)) +
               _mm256_castsi256_pd(lo);
    }
    static D min(D a, D b) { return _mm256_min_pd(a, b); }
    static double
    hmin(D v)
    {
        const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(v),
                                      _mm256_extractf128_pd(v, 1));
        return _mm_cvtsd_f64(_mm_min_sd(m2, _mm_unpackhi_pd(m2, m2)));
    }
};

using Engine = detail::VectorEngine<Avx2>;

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
    return Engine::sweep(detail::planesOf(state), rngs, beta, lo, thresh);
}

void
packedChainPassAvx2(ising::PackedState &state, LaneRngs &rngs,
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
