/**
 * @file
 * The traced run: each layer's public functions called one by one
 * from the benchmark, with a span around every call.
 *
 * tracedCompile() replays core::compile() stage by stage and must
 * produce the same .qo bytes; tracedRun() replays Executable::run()
 * and must produce the same candidates as service::runLocal().  The
 * driver checks both and falls back to one span around the enclosing
 * call when a replay does not reproduce the untraced result.
 */

#ifndef QAC_PERFBENCH_LAYERS_H
#define QAC_PERFBENCH_LAYERS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/service/request.h"
#include "qac/sim/diff_check.h"

namespace perfbench {

inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-layer accumulators: seconds for *_s keys, counts otherwise. */
struct Spans
{
    std::map<std::string, double> v;

    void add(const std::string &key, double x) { v[key] += x; }
    double get(const std::string &key) const
    {
        auto it = v.find(key);
        return it == v.end() ? 0.0 : it->second;
    }
    void merge(const Spans &o)
    {
        for (const auto &[k, x] : o.v)
            v[k] += x;
    }

    /** Run @p f, adding its wall time to @p key. */
    template <class F>
    auto
    time(const std::string &key, F &&f)
    {
        const double t0 = now();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            add(key, now() - t0);
        } else {
            auto r = f();
            add(key, now() - t0);
            return r;
        }
    }
};

/** Span keys that tile an op's wall time (no span nests in another). */
const std::vector<std::string> &topLevelSpans();

/** core::compile(), one public call per stage. */
qac::core::CompileResult tracedCompile(const std::string &source,
                                       const qac::core::CompileOptions &opts,
                                       Spans &spans);

/** Executable::run() for @p req, one public call per layer, returned
 *  in service::SampleResult form for comparison with runLocal(). */
qac::service::SampleResult
tracedRun(const qac::core::Executable &exe,
          const qac::service::SampleRequest &req, Spans &spans);

/** Same candidates, counts and validity, in the same order. */
bool sameSamples(const qac::service::SampleResult &a,
                 const qac::service::SampleResult &b);

/**
 * Event-simulate the first @p report.vectors_checked input vectors
 * diffCheck drew (same enumeration/seed), on the reference and the
 * compiled netlist, timing only the simulation.  Returns the number of
 * vectors on which the two disagree.
 */
uint64_t replayEventEval(const qac::core::CompileResult &compiled,
                         const qac::sim::DiffCheckOptions &opts,
                         const qac::sim::DiffReport &report,
                         Spans &spans);

} // namespace perfbench

#endif // QAC_PERFBENCH_LAYERS_H
