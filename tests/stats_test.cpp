// Registry semantics, nested timers, JSON/trace serialization, and a
// thread-safety smoke test for the qac::stats subsystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "qac/stats/registry.h"
#include "qac/stats/report.h"
#include "qac/stats/trace.h"

using namespace qac;

namespace {

class StatsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        stats::Registry::global().reset();
        stats::Registry::global().setEnabled(true);
        stats::Trace::global().clear();
        stats::Trace::global().setEnabled(false);
    }

    void TearDown() override
    {
        stats::Registry::global().setEnabled(false);
        stats::Registry::global().reset();
        stats::Trace::global().setEnabled(false);
        stats::Trace::global().clear();
    }
};

const stats::Metric *
find(const std::vector<stats::Metric> &ms, const std::string &path)
{
    for (const auto &m : ms)
        if (m.path == path)
            return &m;
    return nullptr;
}

TEST_F(StatsTest, CounterAndGauge)
{
    stats::count("a.hits");
    stats::count("a.hits", 4);
    stats::gauge("a.level", 7);
    stats::gauge("a.level", 3); // gauges overwrite

    auto snap = stats::Registry::global().snapshot();
    const auto *hits = find(snap, "a.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->kind, stats::MetricKind::Counter);
    EXPECT_EQ(hits->count, 5u);
    const auto *level = find(snap, "a.level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(level->count, 3u);
}

TEST_F(StatsTest, DistributionMoments)
{
    for (double v : {2.0, 4.0, 6.0})
        stats::record("d.x", v);
    auto snap = stats::Registry::global().snapshot();
    const auto *m = find(snap, "d.x");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->kind, stats::MetricKind::Distribution);
    EXPECT_EQ(m->dist.count, 3u);
    EXPECT_DOUBLE_EQ(m->dist.sum, 12.0);
    EXPECT_DOUBLE_EQ(m->dist.min, 2.0);
    EXPECT_DOUBLE_EQ(m->dist.max, 6.0);
    EXPECT_DOUBLE_EQ(m->dist.mean, 4.0);
    EXPECT_NEAR(m->dist.stddev, 1.632993, 1e-5);
}

TEST_F(StatsTest, DisabledHelpersRecordNothing)
{
    stats::Registry::global().setEnabled(false);
    stats::count("off.hits");
    stats::gauge("off.gauge", 9);
    stats::record("off.dist", 1.0);
    {
        stats::ScopedTimer t("off.timer");
    }
    EXPECT_TRUE(stats::Registry::global().snapshot().empty());
}

TEST_F(StatsTest, KindMismatchPanics)
{
    stats::count("k.metric");
    EXPECT_DEATH(stats::record("k.metric", 1.0), "conflicting kinds");
}

TEST_F(StatsTest, TimerAccumulatesAcrossCalls)
{
    for (int i = 0; i < 3; ++i)
        stats::ScopedTimer t("t.loop");
    auto snap = stats::Registry::global().snapshot();
    const auto *m = find(snap, "t.loop");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->kind, stats::MetricKind::Timer);
    EXPECT_EQ(m->count, 3u);
}

TEST_F(StatsTest, NestedTimersAndTraceSlices)
{
    stats::Trace::global().setEnabled(true);
    {
        stats::ScopedTimer outer("n.outer");
        {
            stats::ScopedTimer inner("n.inner");
            // make the inner scope take measurable time
            volatile int sink = 0;
            for (int i = 0; i < 10000; ++i)
                sink = sink + i;
        }
    }
    auto snap = stats::Registry::global().snapshot();
    const auto *outer = find(snap, "n.outer");
    const auto *inner = find(snap, "n.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_GE(outer->total_ns, inner->total_ns);

    EXPECT_EQ(stats::Trace::global().size(), 2u);
    std::string json = stats::Trace::global().toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"n.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"n.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(StatsTest, SnapshotSortedByPath)
{
    stats::count("z.last");
    stats::count("a.first");
    stats::count("m.middle");
    auto snap = stats::Registry::global().snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].path, "a.first");
    EXPECT_EQ(snap[1].path, "m.middle");
    EXPECT_EQ(snap[2].path, "z.last");
}

TEST_F(StatsTest, JsonReportSchema)
{
    stats::count("j.counter", 42);
    stats::record("j.dist", 1.5);
    {
        stats::ScopedTimer t("j.timer");
    }
    std::string json = stats::jsonReport();
    EXPECT_NE(json.find("\"schema\":\"qac-stats-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"path\":\"j.counter\",\"kind\":\"counter\","
                        "\"value\":42"),
              std::string::npos);
    EXPECT_NE(json.find("\"path\":\"j.dist\",\"kind\":\"distribution\""),
              std::string::npos);
    EXPECT_NE(json.find("\"path\":\"j.timer\",\"kind\":\"timer\","
                        "\"calls\":1"),
              std::string::npos);
    // crude structural validity: brace/bracket balance
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST_F(StatsTest, DistributionQuantilesExactUnderCap)
{
    // 1..100 ascending: well under the reservoir cap, so the
    // quantiles are exact order statistics (linear interpolation).
    for (int v = 1; v <= 100; ++v)
        stats::record("q.small", static_cast<double>(v));
    auto snap = stats::Registry::global().snapshot();
    const auto *m = find(snap, "q.small");
    ASSERT_NE(m, nullptr);
    EXPECT_DOUBLE_EQ(m->dist.p50, 50.5);
    EXPECT_NEAR(m->dist.p99, 99.01, 1e-9);
}

TEST_F(StatsTest, DistributionQuantilesApproximateOverCap)
{
    // A 20000-sample uniform ramp overflows the reservoir; the
    // estimates must stay close and memory must stay capped.
    constexpr int kN = 20000;
    for (int v = 0; v < kN; ++v)
        stats::record("q.big", static_cast<double>(v));
    auto snap = stats::Registry::global().snapshot();
    const auto *m = find(snap, "q.big");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->dist.count, static_cast<uint64_t>(kN));
    // Uniform sampling error at n=512 is a few percent; 10% margin.
    EXPECT_NEAR(m->dist.p50, kN * 0.50, kN * 0.10);
    EXPECT_GT(m->dist.p99, kN * 0.90);
    EXPECT_LE(m->dist.p99, static_cast<double>(kN - 1));
}

TEST_F(StatsTest, DistributionQuantilesAreDeterministic)
{
    // Fixed-seed reservoir: identical recording sequences must
    // produce bit-identical quantiles (the telemetry determinism
    // contract extends to the stats report).
    auto run = [this]() {
        stats::Registry::global().reset();
        for (int v = 0; v < 5000; ++v)
            stats::record("q.det",
                          static_cast<double>((v * 7919) % 5000));
        auto snap = stats::Registry::global().snapshot();
        const auto *m = find(snap, "q.det");
        EXPECT_NE(m, nullptr);
        return std::make_pair(m->dist.p50, m->dist.p99);
    };
    auto first = run();
    auto second = run();
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

TEST_F(StatsTest, JsonReportCarriesQuantiles)
{
    for (double v : {1.0, 2.0, 3.0, 4.0})
        stats::record("j.q", v);
    std::string json = stats::jsonReport();
    EXPECT_NE(json.find("\"p50\":2.5"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST_F(StatsTest, JsonReportEmbedsManifestBlock)
{
    stats::count("j.counter", 1);
    std::string json = stats::jsonReport(
        stats::Registry::global().snapshot(),
        "{\"tool\":\"test\",\"seed\":9}");
    EXPECT_EQ(json.rfind("{\"schema\":\"qac-stats-v1\",\"manifest\":"
                         "{\"tool\":\"test\",\"seed\":9},\"metrics\":[",
                         0),
              0u);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    // Without a manifest the report is unchanged from qac-stats-v1.
    std::string plain =
        stats::jsonReport(stats::Registry::global().snapshot());
    EXPECT_EQ(plain.find("manifest"), std::string::npos);
}

TEST_F(StatsTest, JsonReportAndTraceEscapeNamesAlike)
{
    // Quote, backslash, newline, tab and a bare control byte: the
    // metric path and the trace-event name escape byte for byte alike.
    const std::string name = "x\"q\\b\nn\tt\x01z";
    const std::string escaped = "x\\\"q\\\\b\\nn\\tt\\u0001z";
    stats::count(name);
    std::string json = stats::jsonReport();
    EXPECT_NE(json.find("{\"path\":\"" + escaped + "\",\"kind\":"),
              std::string::npos)
        << json;
    stats::Trace::global().setEnabled(true);
    stats::Trace::global().instant(name);
    std::string trace = stats::Trace::global().toJson();
    EXPECT_NE(trace.find("{\"name\":\"" + escaped + "\",\"cat\":"),
              std::string::npos)
        << trace;
}

TEST_F(StatsTest, FlowEventsSerializeWithIdsAndBinding)
{
    stats::Trace::global().setEnabled(true);
    uint64_t id = stats::Trace::newFlowId();
    uint64_t id2 = stats::Trace::newFlowId();
    EXPECT_NE(id, id2);
    stats::Trace::global().flowBegin("pool.submit", id);
    stats::Trace::global().flowEnd("pool.submit", id);
    std::string json = stats::Trace::global().toJson();
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    // Both ends carry the same id; the end binds to the enclosing
    // slice ("bp":"e"), not the next slice on the thread.
    std::string id_field =
        "\"id\":" + std::to_string(static_cast<unsigned long long>(id));
    size_t first_id = json.find(id_field);
    ASSERT_NE(first_id, std::string::npos);
    EXPECT_NE(json.find(id_field, first_id + 1), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST_F(StatsTest, TextReportGroupsBySection)
{
    stats::count("alpha.one", 1);
    stats::count("alpha.two", 2);
    stats::count("beta.three", 3);
    std::string text = stats::textReport();
    EXPECT_NE(text.find("[alpha]"), std::string::npos);
    EXPECT_NE(text.find("[beta]"), std::string::npos);
    EXPECT_NE(text.find("one"), std::string::npos);
    EXPECT_LT(text.find("[alpha]"), text.find("[beta]"));
}

TEST_F(StatsTest, ResetDropsMetrics)
{
    stats::count("r.x");
    EXPECT_EQ(stats::Registry::global().snapshot().size(), 1u);
    stats::Registry::global().reset();
    EXPECT_TRUE(stats::Registry::global().snapshot().empty());
    EXPECT_TRUE(stats::Registry::global().enabled());
}

TEST_F(StatsTest, ThreadSafetySmoke)
{
    constexpr int kThreads = 8;
    constexpr int kAdds = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kAdds; ++i) {
                stats::count("mt.hits");
                stats::record("mt.dist", 1.0);
                stats::ScopedTimer timer("mt.timer");
            }
        });
    }
    for (auto &th : threads)
        th.join();

    auto snap = stats::Registry::global().snapshot();
    const auto *hits = find(snap, "mt.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->count,
              static_cast<uint64_t>(kThreads) * kAdds);
    const auto *dist = find(snap, "mt.dist");
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(dist->dist.count,
              static_cast<uint64_t>(kThreads) * kAdds);
    EXPECT_DOUBLE_EQ(dist->dist.sum,
                     static_cast<double>(kThreads) * kAdds);
    const auto *timer = find(snap, "mt.timer");
    ASSERT_NE(timer, nullptr);
    EXPECT_EQ(timer->count,
              static_cast<uint64_t>(kThreads) * kAdds);
}

TEST_F(StatsTest, TraceWriteFile)
{
    stats::Trace::global().setEnabled(true);
    stats::Trace::global().instant("marker");
    std::string path =
        std::string(::testing::TempDir()) + "qac_trace_test.json";
    ASSERT_TRUE(stats::Trace::global().writeFile(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string json = ss.str();
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"marker\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

} // namespace
