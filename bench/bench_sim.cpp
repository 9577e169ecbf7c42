/**
 * @file
 * Throughput of the simulation subsystem (DESIGN.md §15): the
 * event-driven 4-state simulator on a tech-mapped multiplier/ALU
 * netlist.
 *
 * Rows:
 *  - "full"  — every input changes per vector, so the event engine
 *    re-evaluates essentially the whole netlist, each gate at most
 *    once in rank order; this bounds its per-event overhead.
 *  - "incr"  — one input bit toggles per vector, the diffCheck-style
 *    stimulus locality; only the changed cone re-evaluates, so
 *    vectors/sec is far above the full-stimulus rate.
 *  - "levelized" — the full-stimulus vectors through
 *    netlist::Simulator, the same engine behind the acyclic-netlist
 *    front end Executable::evaluate uses; gate-evals/s is nominal
 *    (vectors/s times the gate count).
 *  - "oracle" — end-to-end sim::diffCheck vectors/sec on the 4-bit
 *    multiplier (exhaustive, exact ground states), the actual cost a
 *    `qacc --verify` run pays.
 *
 * BENCH_sim.json gauges: bench.sim.event.events_per_sec,
 * bench.sim.{event,levelized}.full_vectors_per_sec,
 * bench.sim.event.incr_vectors_per_sec,
 * bench.sim.oracle.vectors_per_sec_x100.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "qac/core/compiler.h"
#include "qac/netlist/simulate.h"
#include "qac/netlist/techmap.h"
#include "qac/sim/diff_check.h"
#include "qac/sim/event_sim.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"
#include "qac/verilog/synth.h"

#include "bench_stats.h"

namespace {

using namespace qac;

constexpr uint64_t kSeed = 2019;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** W-bit multiply/add/xor workload, tech-mapped. */
netlist::Netlist
workloadNetlist(unsigned w)
{
    std::string src = format(
        "module work (a, b, y, p);\n"
        "  input [%u:0] a, b;\n"
        "  output [%u:0] y;\n"
        "  output [%u:0] p;\n"
        "  assign y = (a + b) ^ (a - b);\n"
        "  assign p = a * b;\n"
        "endmodule\n",
        w - 1, w - 1, 2 * w - 1);
    netlist::Netlist nl = verilog::synthesizeSource(src, "work");
    netlist::techMap(nl);
    return nl;
}

/** Event-driven simulation of @p vectors random input vectors. */
void
eventRow(const netlist::Netlist &nl, uint64_t vectors, bool incremental)
{
    sim::EventSimulator es(nl);
    Rng rng(kSeed);
    es.setInput("a", static_cast<uint64_t>(rng.next()));
    es.setInput("b", static_cast<uint64_t>(rng.next()));
    es.eval();
    const uint64_t ev0 = es.eventsProcessed();
    const size_t a_width = nl.findPort("a")->width();
    uint64_t check = 0;
    const double t0 = now();
    for (uint64_t v = 0; v < vectors; ++v) {
        if (incremental) {
            // Toggle one bit of "a": the diffCheck / fuzzer stimulus
            // shape.  Only the changed cone should re-evaluate.
            uint64_t cur = es.output("a");
            es.setInput("a", cur ^ (uint64_t{1} << (v % a_width)));
        } else {
            es.setInput("a", static_cast<uint64_t>(rng.next()));
            es.setInput("b", static_cast<uint64_t>(rng.next()));
        }
        es.eval();
        check += es.output("p");
    }
    const double secs = now() - t0;
    const uint64_t events = es.eventsProcessed() - ev0;
    benchmark::DoNotOptimize(check);

    const char *name = incremental ? "incr" : "full";
    const double evps = events / secs;
    const double vps = vectors / secs;
    std::printf("%-9s %12.0f vec/s %14.0f events/s  (%5.1f events/vec)"
                "\n",
                name, vps, evps,
                static_cast<double>(events) / vectors);
    if (incremental) {
        stats::gauge("bench.sim.event.incr_vectors_per_sec",
                     static_cast<uint64_t>(vps));
        stats::gauge("bench.sim.event.incr_events_per_vector_x100",
                     static_cast<uint64_t>(100.0 * events / vectors));
    } else {
        stats::gauge("bench.sim.event.events_per_sec",
                     static_cast<uint64_t>(evps));
        stats::gauge("bench.sim.event.full_vectors_per_sec",
                     static_cast<uint64_t>(vps));
    }
}

/** The same full-stimulus vectors through netlist::Simulator. */
void
levelizedRow(const netlist::Netlist &nl, uint64_t vectors)
{
    netlist::Simulator ls(nl);
    Rng rng(kSeed);
    uint64_t check = 0;
    const double t0 = now();
    for (uint64_t v = 0; v < vectors; ++v) {
        ls.setInput("a", static_cast<uint64_t>(rng.next()));
        ls.setInput("b", static_cast<uint64_t>(rng.next()));
        ls.eval();
        check += ls.output("p");
    }
    const double secs = now() - t0;
    benchmark::DoNotOptimize(check);
    const double vps = vectors / secs;
    const double gps = vps * nl.numGates();
    std::printf("%-9s %12.0f vec/s %14.0f gate-evals/s\n", "levelized",
                vps, gps);
    stats::gauge("bench.sim.levelized.full_vectors_per_sec",
                 static_cast<uint64_t>(vps));
    stats::gauge("bench.sim.levelized.gate_evals_per_sec",
                 static_cast<uint64_t>(gps));
}

/** End-to-end differential-oracle throughput on a 4-bit multiplier. */
void
oracleRow()
{
    const char *src =
        "module mult (a, b, p);\n"
        "  input [3:0] a, b;\n"
        "  output [7:0] p;\n"
        "  assign p = a * b;\n"
        "endmodule\n";
    core::CompileOptions co;
    co.verilogOpts().top = "mult";
    core::CompileResult compiled = core::compile(src, co);
    sim::DiffCheckOptions opts;
    if (benchstats::smoke()) {
        opts.exhaustive_bits = 4; // sample instead of 256 vectors
        opts.samples = 8;
    }
    const double t0 = now();
    sim::DiffReport rep = sim::diffCheck(compiled, opts);
    const double secs = now() - t0;
    if (!rep.ok())
        std::printf("oracle: UNEXPECTED verify failure!\n%s",
                    rep.describe().c_str());
    const double vps = rep.vectors_checked / secs;
    std::printf("%-9s %12.2f vec/s  (%llu vectors, %llu ground "
                "states)\n",
                "oracle", vps,
                static_cast<unsigned long long>(rep.vectors_checked),
                static_cast<unsigned long long>(
                    rep.ground_states_checked));
    stats::gauge("bench.sim.oracle.vectors_per_sec_x100",
                 static_cast<uint64_t>(vps * 100.0));
    stats::gauge("bench.sim.oracle.ok", rep.ok() ? 1 : 0);
}

void
printSimTable()
{
    const unsigned w = benchstats::smoke() ? 6 : 8;
    const uint64_t vectors = benchstats::smoke() ? 2000 : 200000;
    netlist::Netlist nl = workloadNetlist(w);
    std::printf("--- simulation subsystem: %ux%u mult/ALU, %zu gates, "
                "%zu nets ---\n",
                w, w, nl.numGates(), nl.numNets());
    eventRow(nl, vectors, /*incremental=*/false);
    eventRow(nl, vectors, /*incremental=*/true);
    levelizedRow(nl, vectors);
    oracleRow();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("sim");
    printSimTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
