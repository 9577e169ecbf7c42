/**
 * @file
 * Unit-level contract of the packed multi-spin kernel (DESIGN.md §13):
 * ising::PackedState must mirror LocalFieldState bit for bit per lane
 * (reset, flips, deltas, energies), anneal::LaneRngs must step each
 * lane's xoshiro stream exactly as Rng does, and the scalar, AVX2 and
 * AVX-512 engines — SA sweep, chainflip chain pass and the draw floor —
 * must be interchangeable — identical planes, spin words, RNG states,
 * and accept history after every sweep.  The
 * sampler-level lane-parity tests (SampleSet + telemetry byte
 * identity) live in kernel_test.cpp.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_sweep.h"
#include "qac/ising/compiled.h"
#include "qac/ising/model.h"
#include "qac/ising/packed.h"
#include "qac/util/cpu.h"
#include "qac/util/rng.h"

namespace {

using namespace qac;

constexpr uint32_t kLanes = ising::PackedState::kLanes;
/** SA's draw floor: no lane accepts without a draw. */
constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

ising::IsingModel
randomSparseModel(uint64_t seed, size_t n, size_t degree = 6)
{
    Rng rng(seed);
    ising::IsingModel m(n);
    for (uint32_t i = 0; i < n; ++i)
        m.addLinear(i, rng.uniform() * 2 - 1);
    for (uint32_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < degree / 2; ++k) {
            uint32_t j = static_cast<uint32_t>(rng.below(n));
            if (i != j)
                m.addQuadratic(i, j, rng.uniform() * 2 - 1);
        }
    }
    return m;
}

ising::SpinVector
randomSpins(Rng &rng, size_t n)
{
    ising::SpinVector spins(n);
    for (auto &s : spins)
        s = rng.spin();
    return spins;
}

// ------------------------------------------------------- PackedState

TEST(PackedState, ResetLaneMirrorsLocalFieldStateBitwise)
{
    ising::IsingModel m = randomSparseModel(3, 40);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(17);

    std::vector<ising::LocalFieldState> walkers;
    for (uint32_t l = 0; l < 5; ++l) {
        ising::SpinVector spins = randomSpins(rng, m.numVars());
        packed.resetLane(l, spins);
        walkers.emplace_back(k);
        walkers.back().reset(spins);
    }
    EXPECT_EQ(packed.activeMask(), 0x1fu);
    for (uint32_t l = 0; l < 5; ++l) {
        EXPECT_EQ(packed.laneSpins(l), walkers[l].spins()) << l;
        const auto deltas = packed.laneDeltas(l);
        for (uint32_t i = 0; i < m.numVars(); ++i)
            EXPECT_EQ(deltas[i], walkers[l].flipDelta(i))
                << "lane " << l << " var " << i; // bitwise
        EXPECT_EQ(packed.laneEnergy(l), walkers[l].energy()) << l;
    }
}

TEST(PackedState, ApplyFlipsMirrorsPerLaneFlipsBitwise)
{
    ising::IsingModel m = randomSparseModel(5, 32);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(23);

    std::vector<ising::LocalFieldState> walkers;
    for (uint32_t l = 0; l < kLanes; ++l) {
        ising::SpinVector spins = randomSpins(rng, m.numVars());
        packed.resetLane(l, spins);
        walkers.emplace_back(k);
        walkers.back().reset(spins);
    }

    for (int step = 0; step < 500; ++step) {
        const uint32_t i =
            static_cast<uint32_t>(rng.below(m.numVars()));
        const uint64_t accept = rng.next();
        packed.applyFlips(i, accept);
        for (uint32_t l = 0; l < kLanes; ++l)
            if ((accept >> l) & 1)
                walkers[l].flip(i);
    }
    for (uint32_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(packed.laneSpins(l), walkers[l].spins()) << l;
        EXPECT_EQ(packed.flips(l), walkers[l].flips()) << l;
        const auto deltas = packed.laneDeltas(l);
        for (uint32_t i = 0; i < m.numVars(); ++i)
            EXPECT_EQ(deltas[i], walkers[l].flipDelta(i))
                << "lane " << l << " var " << i;
        EXPECT_EQ(packed.laneEnergy(l), walkers[l].energy()) << l;
    }
}

TEST(PackedState, CandidateMaskMatchesPerLaneThresholdTest)
{
    ising::IsingModel m = randomSparseModel(7, 24);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(29);
    for (uint32_t l = 0; l < kLanes; ++l)
        packed.resetLane(l, randomSpins(rng, m.numVars()));

    for (double thresh : {-0.5, 0.0, 0.75, 2.0, 40.0}) {
        for (uint32_t i = 0; i < m.numVars(); ++i) {
            const uint64_t mask = packed.candidateMask(i, thresh);
            for (uint32_t l = 0; l < kLanes; ++l) {
                const bool want =
                    packed.laneDeltas(l)[i] < thresh;
                EXPECT_EQ((mask >> l) & 1, want ? 1u : 0u)
                    << "thresh " << thresh << " var " << i
                    << " lane " << l;
            }
            // The refreshed min summary is consistent: no candidates
            // iff the min sits at or above the threshold.
            EXPECT_EQ(mask == 0, packed.minDelta()[i] >= thresh);
        }
    }
}

TEST(PackedState, InactiveLanesNeverPropose)
{
    // Ragged-tail shape: only 3 of 64 lanes live.  The inactive lanes
    // must produce no candidates at any threshold and must not perturb
    // the live lanes' planes.
    ising::IsingModel m = randomSparseModel(9, 20);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(31);
    for (uint32_t l = 0; l < 3; ++l)
        packed.resetLane(l, randomSpins(rng, m.numVars()));
    EXPECT_EQ(packed.activeMask(), 0x7u);

    const double huge = std::numeric_limits<double>::max();
    for (uint32_t i = 0; i < m.numVars(); ++i) {
        const uint64_t mask = packed.candidateMask(i, huge);
        EXPECT_EQ(mask & ~0x7u, 0u) << i;
        EXPECT_EQ(mask, 0x7u) << i; // finite deltas all clear `huge`
    }
}

// ---------------------------------------------------------- LaneRngs

TEST(LaneRngs, StepsMatchRngBitwise)
{
    anneal::LaneRngs lanes;
    std::vector<Rng> refs;
    for (uint32_t l = 0; l < kLanes; ++l) {
        Rng r = Rng::streamAt(77, l);
        lanes.set(l, r);
        refs.push_back(r);
    }
    // Interleaved, lane-dependent consumption: lane l draws l+1 times
    // per round, exercising state independence across the SoA planes.
    for (int round = 0; round < 8; ++round) {
        for (uint32_t l = 0; l < kLanes; ++l) {
            for (uint32_t d = 0; d <= l % 4; ++d) {
                EXPECT_EQ(lanes.next(l), refs[l].next())
                    << "lane " << l;
                EXPECT_EQ(lanes.uniform(l), refs[l].uniform())
                    << "lane " << l; // bitwise
            }
        }
    }
}

// ------------------------------------------------------ sweep engines

TEST(PackedSweep, ScalarEngineMatchesPerLaneWalkers)
{
    // One packed sweep == 64 scalar Metropolis sweeps, bit for bit:
    // spins, deltas, flip counts, and RNG consumption.
    ising::IsingModel m = randomSparseModel(13, 48);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    anneal::LaneRngs lanes;
    std::vector<ising::LocalFieldState> walkers;
    std::vector<Rng> refs;
    for (uint32_t l = 0; l < kLanes; ++l) {
        Rng r = Rng::streamAt(5, l);
        ising::SpinVector spins = randomSpins(r, m.numVars());
        packed.resetLane(l, spins);
        lanes.set(l, r);
        walkers.emplace_back(k);
        walkers.back().reset(spins);
        refs.push_back(r);
    }

    const double betas[] = {0.2, 0.5, 1.1, 2.4, 6.0, 20.0};
    for (const double beta : betas) {
        const double thresh = 40.0 / beta;
        anneal::packedSweepScalar(packed, lanes, beta, kNoFloor, thresh);
        for (uint32_t l = 0; l < kLanes; ++l) {
            auto &st = walkers[l];
            for (uint32_t i = 0; i < m.numVars(); ++i) {
                const double delta = st.flipDelta(i);
                if (delta >= thresh)
                    continue;
                if (anneal::metropolisAccept(refs[l], beta * delta))
                    st.flip(i);
            }
        }
    }
    for (uint32_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(packed.laneSpins(l), walkers[l].spins()) << l;
        EXPECT_EQ(packed.flips(l), walkers[l].flips()) << l;
        const auto deltas = packed.laneDeltas(l);
        for (uint32_t i = 0; i < m.numVars(); ++i)
            EXPECT_EQ(deltas[i], walkers[l].flipDelta(i)) << l;
        // And the lane streams consumed exactly the same draws.
        EXPECT_EQ(lanes.next(l), refs[l].next()) << l;
    }
}

// Drives @p engine against the scalar engine over a geometric
// schedule spanning hot (dense masks, vector draw path) through cold
// (sparse masks, scalar fallbacks), asserting bitwise identity of
// drew masks, spins, flip counters, delta planes and RNG streams.
void
expectEngineMatchesScalar(anneal::PackedSweepFn engine)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        ising::IsingModel m = randomSparseModel(seed * 101, 64);
        ising::CompiledModel k(m);
        ising::PackedState a(k), b(k);
        anneal::LaneRngs la, lb;
        for (uint32_t l = 0; l < kLanes; ++l) {
            Rng r = Rng::streamAt(seed, l);
            ising::SpinVector spins = randomSpins(r, m.numVars());
            a.resetLane(l, spins);
            b.resetLane(l, spins);
            la.set(l, r);
            lb.set(l, r);
        }
        double beta = 0.1;
        for (int s = 0; s < 48; ++s, beta *= 1.2) {
            const double thresh = 40.0 / beta;
            const uint64_t drew_a =
                anneal::packedSweepScalar(a, la, beta, kNoFloor, thresh);
            const uint64_t drew_b = engine(b, lb, beta, kNoFloor, thresh);
            ASSERT_EQ(drew_a, drew_b) << "sweep " << s;
        }
        for (uint32_t l = 0; l < kLanes; ++l) {
            ASSERT_EQ(a.laneSpins(l), b.laneSpins(l)) << l;
            ASSERT_EQ(a.flips(l), b.flips(l)) << l;
            const auto da = a.laneDeltas(l), db = b.laneDeltas(l);
            for (uint32_t i = 0; i < m.numVars(); ++i)
                ASSERT_EQ(da[i], db[i])
                    << "lane " << l << " var " << i;
            ASSERT_EQ(la.next(l), lb.next(l)) << l;
        }
    }
}

TEST(PackedSweep, Avx2EngineMatchesScalarEngineBitwise)
{
    if (!anneal::packedSweepAvx2Compiled() || !util::avx2Supported())
        GTEST_SKIP() << "AVX2 engine not compiled in or unsupported";
    expectEngineMatchesScalar(&anneal::packedSweepAvx2);
}

TEST(PackedSweep, Avx512EngineMatchesScalarEngineBitwise)
{
    if (!anneal::packedSweepAvx512Compiled() ||
        !util::avx512Supported())
        GTEST_SKIP() << "AVX-512 engine not compiled in or unsupported";
    expectEngineMatchesScalar(&anneal::packedSweepAvx512);
}

TEST(PackedSweep, SelectedEngineIsCoherent)
{
    const bool avx512 = anneal::packedSweepAvx512Compiled() &&
                        util::avx512Supported();
    const bool avx2 = anneal::packedSweepAvx2Compiled() &&
                      util::avx2Supported();
    EXPECT_STREQ(anneal::selectPackedEngine().name,
                 avx512 ? "avx512" : (avx2 ? "avx2" : "scalar"));
    EXPECT_NE(anneal::selectPackedEngine().sweep, nullptr);
}

// ------------------------------------------- chain pass + draw floor
//
// Every compiled engine against per-lane LocalFieldState walkers that
// run the per-read loops literally: chainflip's chain move and
// `delta <= 0 || metropolisAccept` single-qubit pass, and SA's
// threshold sweep.  Spins, flip counts, delta planes, draw masks and
// RNG consumption must agree bit for bit.

/** The engines this host can run, scalar first. */
std::vector<anneal::PackedEngine>
runnableEngines()
{
    std::vector<anneal::PackedEngine> out = {
        {"scalar", &anneal::packedSweepScalar,
         &anneal::packedChainPassScalar}};
    if (anneal::packedSweepAvx2Compiled() && util::avx2Supported())
        out.push_back({"avx2", &anneal::packedSweepAvx2,
                       &anneal::packedChainPassAvx2});
    if (anneal::packedSweepAvx512Compiled() && util::avx512Supported())
        out.push_back({"avx512", &anneal::packedSweepAvx512,
                       &anneal::packedChainPassAvx512});
    return out;
}

/** Half-integer h and J: local fields, deltas and chain sums hit
 *  exact +0.0 and -0.0 all the time. */
ising::IsingModel
zeroRichModel(uint64_t seed, size_t n)
{
    Rng rng(seed);
    ising::IsingModel m(n);
    const double vals[] = {-1.0, -0.5, 0.5, 1.0};
    for (uint32_t i = 0; i < n; ++i)
        if (rng.below(3) == 0)
            m.addLinear(i, vals[rng.below(4)]);
    for (uint32_t i = 0; i < n; ++i)
        for (int k = 0; k < 2; ++k) {
            const uint32_t j = static_cast<uint32_t>(rng.below(n));
            if (i != j)
                m.addQuadratic(i, j, vals[rng.below(4)]);
        }
    return m;
}

/** Hand-made chains over zeroRichModel-sized models: out-of-order
 *  members, a singleton, an empty chain; consecutive members coupled
 *  ferromagnetically; plus internal edges of weight +0 and -0 that
 *  the model itself would drop. */
anneal::FlatChains
testChains(ising::IsingModel &m)
{
    const std::vector<std::vector<uint32_t>> chains = {
        {3, 0, 1, 2}, {7}, {}, {10, 12, 11}, {20, 21, 22, 23, 24, 25},
        {31, 30}, {40, 44, 42, 41}};
    for (const auto &c : chains)
        for (size_t k = 1; k < c.size(); ++k)
            m.addQuadratic(c[k - 1], c[k], -1.0);
    ising::CompiledModel k(m);
    anneal::FlatChains fc(k, chains);
    // Zero-weight internal edges on the last chain (its edges are the
    // tail of the edge arrays).
    for (const double w4 : {0.0, -0.0}) {
        fc.edge_i.push_back(40);
        fc.edge_j.push_back(44);
        fc.edge_w4.push_back(w4);
        ++fc.edge_off.back();
    }
    return fc;
}

struct ZeroHits
{
    uint64_t pos = 0, neg = 0, chain = 0;
};

/** Scalar chainflip sweep for one walker: the per-read loop. */
void
refChainflipSweep(ising::LocalFieldState &st, Rng &rng,
                  const anneal::FlatChains &fc, double beta,
                  ZeroHits &zeros)
{
    const auto &sp = st.spins();
    for (uint32_t c = 0; c < fc.size(); ++c) {
        double delta = 0.0;
        for (uint32_t k = fc.member_off[c]; k < fc.member_off[c + 1]; ++k)
            delta += st.flipDelta(fc.members[k]);
        for (uint32_t e = fc.edge_off[c]; e < fc.edge_off[c + 1]; ++e)
            delta += fc.edge_w4[e] * sp[fc.edge_i[e]] * sp[fc.edge_j[e]];
        zeros.chain += delta == 0.0;
        if (delta <= 0.0 || anneal::metropolisAccept(rng, beta * delta))
            for (uint32_t k = fc.member_off[c];
                 k < fc.member_off[c + 1]; ++k)
                st.flip(fc.members[k]);
    }
    for (uint32_t i = 0; i < st.model().numVars(); ++i) {
        const double delta = st.flipDelta(i);
        if (delta == 0.0)
            ++(std::signbit(delta) ? zeros.neg : zeros.pos);
        if (delta <= 0.0 || anneal::metropolisAccept(rng, beta * delta))
            st.flip(i);
    }
}

struct Lanes
{
    ising::PackedState packed;
    anneal::LaneRngs rngs;
    std::vector<ising::LocalFieldState> walkers;
    std::vector<Rng> refs;

    Lanes(const ising::CompiledModel &k, uint64_t seed, uint32_t nlanes)
        : packed(k)
    {
        for (uint32_t l = 0; l < nlanes; ++l) {
            Rng r = Rng::streamAt(seed, l);
            ising::SpinVector spins = randomSpins(r, k.numVars());
            packed.resetLane(l, spins);
            rngs.set(l, r);
            walkers.emplace_back(k);
            walkers.back().reset(spins);
            refs.push_back(r);
        }
        // Live streams on the inactive lanes too (an all-zero xoshiro
        // state would not move if stepped), so a stray draw shows.
        for (uint32_t l = nlanes; l < kLanes; ++l)
            rngs.set(l, Rng::streamAt(seed, l));
        initial = rngs;
    }

    anneal::LaneRngs initial;

    /** Bitwise lane-vs-walker comparison; inactive lanes must be
     *  untouched: no flips, +inf deltas, RNG state as initialized. */
    void
    expectMatches(const char *engine) const
    {
        const uint32_t n =
            static_cast<uint32_t>(packed.model().numVars());
        for (uint32_t l = 0; l < walkers.size(); ++l) {
            ASSERT_EQ(packed.laneSpins(l), walkers[l].spins())
                << engine << " lane " << l;
            ASSERT_EQ(packed.flips(l), walkers[l].flips())
                << engine << " lane " << l;
            const auto deltas = packed.laneDeltas(l);
            for (uint32_t i = 0; i < n; ++i) {
                const double a = deltas[i], b = walkers[l].flipDelta(i);
                ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                    << engine << " lane " << l << " var " << i;
            }
            for (int w = 0; w < 4; ++w)
                ASSERT_EQ(rngs.s[w][l], refs[l].state()[w])
                    << engine << " lane " << l;
        }
        for (uint32_t l = walkers.size(); l < kLanes; ++l) {
            ASSERT_EQ(packed.flips(l), 0u) << engine << " lane " << l;
            for (uint32_t i = 0; i < n; ++i) {
                ASSERT_EQ(packed.spin(i, l), 1) << engine << " lane " << l;
                ASSERT_EQ(packed.laneDeltas(l)[i],
                          std::numeric_limits<double>::infinity());
            }
            for (int w = 0; w < 4; ++w)
                ASSERT_EQ(rngs.s[w][l], initial.s[w][l])
                    << engine << " lane " << l;
        }
    }
};

TEST(PackedChainPass, EveryEngineMatchesPerLaneWalkers)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const anneal::PackedEngine &eng : runnableEngines()) {
        for (uint32_t nlanes : {kLanes, 37u, 5u}) {
            ising::IsingModel m = zeroRichModel(19, 56);
            const anneal::FlatChains fc = testChains(m);
            ising::CompiledModel k(m);
            Lanes lanes(k, 11, nlanes);
            ZeroHits zeros;
            double beta = 0.05;
            for (int s = 0; s < 40; ++s, beta *= 1.2) {
                eng.chain_pass(lanes.packed, lanes.rngs, fc, beta);
                eng.sweep(lanes.packed, lanes.rngs, beta, 0.0, inf);
                for (uint32_t l = 0; l < nlanes; ++l)
                    refChainflipSweep(lanes.walkers[l], lanes.refs[l],
                                      fc, beta, zeros);
            }
            lanes.expectMatches(eng.name);
            // The run really crossed the signed-zero cases.
            EXPECT_GT(zeros.pos, 0u) << eng.name;
            EXPECT_GT(zeros.neg, 0u) << eng.name;
            EXPECT_GT(zeros.chain, 0u) << eng.name;
        }
    }
}

TEST(PackedChainPass, SaFloorMatchesPerLaneDrawMasks)
{
    // lo = -inf is SA: every lane below the threshold draws, and the
    // returned mask is exactly the lanes whose walker drew.
    const double no_floor = -std::numeric_limits<double>::infinity();
    for (const anneal::PackedEngine &eng : runnableEngines()) {
        for (uint32_t nlanes : {kLanes, 29u}) {
            ising::IsingModel m = randomSparseModel(23, 60);
            ising::CompiledModel k(m);
            Lanes lanes(k, 13, nlanes);
            double beta = 0.1;
            for (int s = 0; s < 48; ++s, beta *= 1.2) {
                const double thresh = 40.0 / beta;
                const uint64_t drew = eng.sweep(lanes.packed, lanes.rngs,
                                                beta, no_floor, thresh);
                uint64_t want = 0;
                for (uint32_t l = 0; l < nlanes; ++l) {
                    auto &st = lanes.walkers[l];
                    for (uint32_t i = 0; i < m.numVars(); ++i) {
                        const double delta = st.flipDelta(i);
                        if (delta >= thresh)
                            continue;
                        want |= uint64_t{1} << l;
                        if (anneal::metropolisAccept(lanes.refs[l],
                                                     beta * delta))
                            st.flip(i);
                    }
                }
                ASSERT_EQ(drew, want) << eng.name << " sweep " << s;
            }
            lanes.expectMatches(eng.name);
        }
    }
}

// ------------------------------------------------- LocalFieldState::adopt

TEST(LocalFieldState, AdoptTakesSnapshotVerbatim)
{
    ising::IsingModel m = randomSparseModel(15, 24);
    ising::CompiledModel k(m);
    Rng rng(41);
    ising::SpinVector spins = randomSpins(rng, m.numVars());
    ising::LocalFieldState ref(k);
    ref.reset(spins);
    for (int i = 0; i < 10; ++i)
        ref.flip(static_cast<uint32_t>(rng.below(m.numVars())));

    std::vector<double> deltas;
    for (uint32_t i = 0; i < m.numVars(); ++i)
        deltas.push_back(ref.flipDelta(i));
    ising::LocalFieldState adopted(k);
    adopted.adopt(ref.spins(), deltas, ref.flips());

    EXPECT_EQ(adopted.spins(), ref.spins());
    EXPECT_EQ(adopted.flips(), ref.flips());
    EXPECT_EQ(adopted.energy(), ref.energy()); // bitwise
    for (uint32_t i = 0; i < m.numVars(); ++i)
        EXPECT_EQ(adopted.flipDelta(i), ref.flipDelta(i)) << i;
}

} // namespace
