/**
 * @file
 * qac_perfbench: the closed-loop benchmark driver.
 *
 *   qac_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                 [--threads <n>] [--setups <n>]
 *
 * One caller, one operation in flight, one thread unless --threads
 * says otherwise.  Every input comes from --seed; every answer is
 * checked against the benchmark's own reference (checks.h).
 * Operations run in fixed rounds: round 1 fixes each op's result,
 * later rounds must repeat it exactly, and rounds continue until
 * --seconds have passed, so result metrics never depend on how many
 * rounds fit.  Gated times are process CPU seconds of the op alone.
 *
 * Output: human-readable metric lines, a "# result" line with the
 * deterministic result metrics, and as the last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "checks.h"
#include "cores.h"
#include "inputs.h"
#include "layers.h"
#include "qac/artifact/qo.h"
#include "qac/cells/gate.h"
#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/netlist/simulate.h"
#include "qac/qmasm/assemble.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/service/request.h"
#include "qac/sim/diff_check.h"
#include "qac/util/logging.h"
#include "qac/verilog/synth.h"

namespace fs = std::filesystem;
using namespace qac;

namespace perfbench {
namespace {

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    uint32_t threads = 0;
    size_t setups = 3; ///< fewest set-ups; cheap ones repeat more
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "qac_perfbench: %s\nusage: qac_perfbench --workload "
                 "<compile_cold|compile_warm|sample_tts|verify_oracle> "
                 "--seed <n> --seconds <s> --trace <0|1> [--threads <n>] "
                 "[--setups <n>]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--threads")
                o.threads = static_cast<uint32_t>(std::stoul(v));
            else if (a == "--setups")
                o.setups = std::max<size_t>(1, std::stoul(v));
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload != "compile_cold" && o.workload != "compile_warm" &&
        o.workload != "sample_tts" && o.workload != "verify_oracle")
        usage("--workload must name one of the four workloads");
    // One thread by default: on a shared host a single thread is what
    // the machine reliably gives, and results are thread-count
    // invariant (test_determinism.py checks 1 against nproc).
    if (o.threads == 0)
        o.threads = 1;
    return o;
}

// ------------------------------------------------------------ helpers

/** Process CPU seconds, all threads, at nanosecond resolution. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest whole percentile with at least ten samples beyond it,
 *  never below the median (so it equals p50 under 20 samples). */
struct Tail
{
    double value = 0.0;
    unsigned percentile = 50;
};

Tail
tail(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    unsigned q = 50;
    while (q < 99 && static_cast<double>(n) * (1.0 - (q + 1) / 100.0) >= 10.0)
        ++q;
    t.percentile = q;
    if (q == 50) {
        t.value = median(v);
        return t;
    }
    // Nearest rank.
    size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
    t.value = v[std::max<size_t>(rank, 1) - 1];
    return t;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/** Expected attempts to one success with 99% confidence. */
double
attemptsTo99(double p)
{
    if (p >= 0.99)
        return 1.0;
    return std::log(0.01) / std::log(1.0 - p);
}

/** Private scratch directories inside the checkout, removed at exit. */
class ScratchDirs
{
  public:
    ScratchDirs()
    {
        root_ = fs::current_path() / ".bench_build" /
            ("scratch-" + std::to_string(getpid()));
        fs::remove_all(root_);
        fs::create_directories(root_);
    }
    ~ScratchDirs()
    {
        std::error_code ec;
        fs::remove_all(root_, ec);
    }
    ScratchDirs(const ScratchDirs &) = delete;
    ScratchDirs &operator=(const ScratchDirs &) = delete;

    /** A fresh, empty directory. */
    std::string
    fresh()
    {
        fs::path p = root_ / ("d" + std::to_string(next_++));
        fs::create_directories(p);
        return p.string();
    }
    void
    drop(const std::string &dir)
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

  private:
    fs::path root_;
    uint64_t next_ = 0;
};

/** A failed answer check: the op failed and its output is wrong. */
struct WrongAnswer : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** An op that produced no answer (zero valid reads); not a wrong one. */
struct NoAnswer : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

void
require(bool cond, const std::string &what)
{
    if (!cond)
        throw WrongAnswer(what);
}

// ------------------------------------------------------------ ops

/** Wall and CPU time of the operation itself, without its checks. */
struct Clock
{
    double wall = 0;
    double cpu = 0;
    double t0 = 0;
    double c0 = 0;
    bool running = false;

    void start()
    {
        t0 = now();
        c0 = cpuSeconds();
        running = true;
    }
    void stop()
    {
        wall = now() - t0;
        cpu = cpuSeconds() - c0;
        running = false;
    }
};

/** What one op reports besides its wall time. */
struct Outcome
{
    std::string fingerprint;   ///< exact result; must repeat every round
    double attempts = 1;       ///< reads for sampling ops, else 1
    double correct = 1;        ///< attempts whose answer checked out
    double qo_load_s = 0;      ///< .qo deserialization inside the op
    double vectors = 0;        ///< diffCheck vectors
    double verify_s = 0;       ///< time inside diffCheck
    bool exact = false;        ///< diffCheck stayed exact
    size_t physical_qubits = 0;
    size_t max_chain = 0;
};

struct Op
{
    std::string cls;  ///< query class (per-class medians, TTS)
    std::string kind; ///< "physical" / "logical" / "" (sample_tts)
    /** Runs the op; @p spans non-null selects the traced replay.  The
     *  op starts and stops @p clk around the operation, not its
     *  checks; a throw before stop() leaves the clock running.
     *  @p variant < Workload::variants picks the op's input variant. */
    std::function<Outcome(Spans *spans, Clock &clk, size_t variant)> run;
    /** Runs of the op per round: ms-scale ops repeat so that each
     *  class median rests on many samples even when a round is long. */
    size_t repeat = 1;
    /** False: the op counts in attempted/failed and its result is
     *  checked, but its time enters no latency metric. */
    bool timed = true;
};

struct Workload
{
    std::string name;
    std::function<void()> setup; ///< repeated; the last one is kept
    std::vector<Op> ops;         ///< one round
    /** Rounds cycle through this many input variants (sampler seeds);
     *  result metrics cover one cycle, runs end on a whole cycle. */
    size_t variants = 1;
};

core::CompileOptions
chimeraOpts(const Design &d, uint64_t embed_seed, uint32_t threads,
            const std::string &cache_dir)
{
    core::CompileOptions co;
    co.verilogOpts().top = d.top;
    co.target = core::Target::Chimera;
    co.chimera_size = 16;
    co.embed.seed = embed_seed;
    co.threads = threads;
    co.cache.dir = cache_dir;
    return co;
}

core::CompileOptions
logicalOpts(const Design &d, uint32_t threads)
{
    core::CompileOptions co;
    co.verilogOpts().top = d.top;
    co.threads = threads;
    co.cache.enabled = false;
    return co;
}

core::CompileOptions
cnfOpts(uint32_t threads)
{
    core::CompileOptions co;
    co.dimacsOpts();
    co.threads = threads;
    co.cache.enabled = false;
    return co;
}

/** Compile through core::compile, or through the traced replay whose
 *  .qo bytes must match an untraced compile of the same input. */
core::CompileResult
compileOp(const std::string &src, const core::CompileOptions &co,
          Spans *spans)
{
    if (!spans)
        return core::compile(src, co);
    return tracedCompile(src, co, *spans);
}

std::string
qoWrite(const core::CompileResult &r, Spans *spans)
{
    if (!spans)
        return artifact::serializeQo(r);
    std::string bytes = spans->time("artifact.qo_write_s",
                                    [&] { return artifact::serializeQo(r); });
    spans->add("artifact.qo_bytes", static_cast<double>(bytes.size()));
    return bytes;
}

core::CompileResult
qoRead(const std::string &bytes, Spans *spans, double *secs)
{
    std::string err;
    const double t0 = now();
    auto r = artifact::deserializeQo(bytes, &err);
    const double dt = now() - t0;
    if (secs)
        *secs += dt;
    if (spans)
        spans->add("artifact.qo_read_s", dt);
    require(r.has_value(), ".qo did not load back: " + err);
    return std::move(*r);
}

/** The embedded-compile checks shared by the compile workloads. */
void
checkEmbedded(const core::CompileResult &r)
{
    require(r.embedding && r.hardware && r.embedded,
            "Chimera compile without an embedding");
    std::string why;
    require(embeddingValid(r.embedding->chains, r.assembled.model,
                           *r.hardware, &why),
            "invalid embedding: " + why);
}

/** Forward-simulate @p r's netlist on @p vectors input maps and
 *  compare against @p expect (the benchmark's own arithmetic). */
void
checkForward(const core::CompileResult &r,
             const std::vector<std::map<std::string, uint64_t>> &vectors,
             const std::function<std::map<std::string, uint64_t>(
                 const std::map<std::string, uint64_t> &)> &expect)
{
    netlist::Simulator sim(r.netlist);
    for (const auto &in : vectors) {
        for (const auto &[port, v] : in)
            sim.setInput(port, v);
        sim.eval();
        for (const auto &[port, want] : expect(in))
            require(sim.output(port) == want,
                    "netlist computes the wrong " + port);
    }
}

std::map<std::string, uint64_t>
expectDesign(const std::string &name, const std::map<std::string, uint64_t> &in)
{
    auto at = [&](const char *k) { return in.at(k); };
    if (name == "mult4")
        return {{"C", at("A") * at("B")}};
    if (name == "mux_add_sub")
        return {{"Y", (at("sel") ? at("A") - at("B") : at("A") + at("B")) &
                          15}};
    if (name == "map_coloring") {
        std::map<std::string, uint64_t> colors;
        for (const auto &r : mapRegions())
            colors[r] = in.at(r);
        return {{"valid", coloringValid(colors) ? 1u : 0u}};
    }
    if (name.rfind("mul", 0) == 0) {
        const unsigned bits = static_cast<unsigned>(std::stoul(name.substr(3)));
        const uint64_t mask =
            2 * bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << (2 * bits)) - 1;
        return {{"C", (at("A") * at("B")) & mask}};
    }
    if (name.rfind("alu", 0) == 0) {
        const unsigned bits = static_cast<unsigned>(std::stoul(name.substr(3)));
        return {{"y", aluReference(bits, at("a"), at("b"), at("op"))}};
    }
    throw std::logic_error("no reference for " + name);
}

/** Seeded input vectors for @p r's input ports. */
std::vector<std::map<std::string, uint64_t>>
inputVectors(const core::CompileResult &r, uint64_t seed, size_t count)
{
    std::vector<std::map<std::string, uint64_t>> out;
    for (size_t i = 0; i < count; ++i) {
        std::map<std::string, uint64_t> in;
        uint64_t k = 0;
        for (const auto &p : r.netlist.ports()) {
            if (p.dir != netlist::PortDir::Input)
                continue;
            const size_t w = p.width();
            const uint64_t mask =
                w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
            in[p.name] = mix(seed + 1000003 * i + k++) & mask;
        }
        out.push_back(std::move(in));
    }
    return out;
}

// ------------------------------------------------------------ workloads

/**
 * compile_cold: C16 compiles with an empty private cache, so every op
 * misses, runs the embedder and stores.  Map coloring and mux_add_sub
 * under successive embedder seeds, plus one planted 3-SAT at the uf20
 * clause ratio (10 vars, 42 clauses), which does not embed today.
 */
Workload
compileCold(const Options &o, ScratchDirs &dirs)
{
    auto designs = std::make_shared<std::vector<Design>>();
    auto cnf = std::make_shared<Cnf>();
    Workload w;
    w.name = "compile_cold";
    w.setup = [=] {
        *designs = {mapColoring(), muxAddSub()};
        *cnf = plantedCnf(mix(o.seed ^ 0xc0ffee), 10, 42);
        // Input validation: every input must lower to a logical model.
        for (const auto &d : *designs)
            require(core::compile(d.source, logicalOpts(d, o.threads))
                            .stats.logical_vars > 0,
                    d.name + " does not lower");
        require(core::compile(cnf->dimacs(), cnfOpts(o.threads))
                        .stats.logical_vars > 0,
                "planted CNF does not lower");
    };
    // Embedder seeds per round: the successive seeds 1..4 for map
    // coloring and every other one for mux_add_sub, the same in every
    // run.  Map coloring's median compile time moved by up to 20%
    // from one --seed-drawn set of six seeds to the next, so drawn
    // seeds make the run-to-run spread about the seeds, not about the
    // code; --seed picks the planted CNF and its embedder seed instead.
    const uint64_t kColdSeeds = 4;
    for (uint64_t k = 0; k < kColdSeeds; ++k) {
        for (size_t di = 0; di < (k % 2 ? 1u : 2u); ++di) {
            Op op;
            op.cls = di == 0 ? "map_coloring" : "mux_add_sub";
            const uint64_t eseed = 1 + k;
            op.run = [=, &dirs](Spans *spans, Clock &clk, size_t) {
                const Design &d = (*designs)[di];
                const std::string dir = dirs.fresh();
                auto co = chimeraOpts(d, eseed, o.threads, dir);
                clk.start();
                core::CompileResult r = compileOp(d.source, co, spans);
                clk.stop();
                std::string bytes = artifact::serializeQo(r);
                dirs.drop(dir);
                checkEmbedded(r);
                require(artifact::serializeQo(
                            qoRead(bytes, nullptr, nullptr)) == bytes,
                        ".qo round trip changed the bytes");
                Outcome out;
                out.fingerprint = artifact::qoDigestHex(bytes);
                out.physical_qubits = r.stats.physical_qubits;
                out.max_chain = r.stats.max_chain_length;
                return out;
            };
            w.ops.push_back(std::move(op));
        }
    }
    // The CNF op is there to show the embedding failure: its time
    // enters no median, so its eight embedder tries race on up to four
    // threads to keep the run short.  The outcome is the same at any
    // thread count.
    const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    const uint32_t sat_threads = std::max(o.threads, std::min(4u, hw));
    const uint64_t sat_seed = mix(o.seed) % 100000;
    Op sat;
    sat.cls = "cnf_10v42c";
    sat.timed = false;
    sat.run = [=, &dirs](Spans *spans, Clock &clk, size_t) {
        const std::string dir = dirs.fresh();
        core::CompileOptions co = cnfOpts(sat_threads);
        co.target = core::Target::Chimera;
        co.chimera_size = 16;
        co.embed.seed = sat_seed;
        co.cache.enabled = true;
        co.cache.dir = dir;
        clk.start();
        core::CompileResult r;
        try {
            r = compileOp(cnf->dimacs(), co, spans);
        } catch (...) {
            clk.stop();
            dirs.drop(dir);
            throw;
        }
        clk.stop();
        std::string bytes = artifact::serializeQo(r);
        dirs.drop(dir);
        checkEmbedded(r);
        require(r.dimacs_decode && r.dimacs_decode->clauses.size() ==
                                       cnf->clauses.size(),
                "CNF decode info lost clauses");
        Outcome out;
        out.fingerprint = artifact::qoDigestHex(bytes);
        out.physical_qubits = r.stats.physical_qubits;
        out.max_chain = r.stats.max_chain_length;
        return out;
    };
    w.ops.push_back(std::move(sat));
    return w;
}

/**
 * compile_warm: the cache is pre-populated with C16 compiles of mult4,
 * mux_add_sub and map coloring; ops re-compile those (cache hits) and
 * compile large generated designs to the logical target.  Every op
 * writes its result to .qo and loads it back.
 */
Workload
compileWarm(const Options &o, ScratchDirs &dirs)
{
    struct State
    {
        std::string cache_dir;
        std::vector<Design> designs;      ///< the first kC16 embed
        std::vector<std::string> cold_qo; ///< setup's cold compiles
        Cnf cnf;
    };
    constexpr size_t kC16 = 3;
    auto st = std::make_shared<State>();
    // A fixed embedder seed: the set-up's cold compiles then do the
    // same embedder work in every run, so setup_s does not follow the
    // run seed's embedder luck (compile_cold samples that).
    constexpr uint64_t eseed = 1;
    auto optsFor = [=](size_t i) {
        const Design &d = st->designs[i];
        return i < kC16 ? chimeraOpts(d, eseed, o.threads, st->cache_dir)
                        : logicalOpts(d, o.threads);
    };
    Workload w;
    w.name = "compile_warm";
    w.setup = [=, &dirs] {
        if (!st->cache_dir.empty())
            dirs.drop(st->cache_dir);
        st->cache_dir = dirs.fresh();
        st->designs = {mult4(), muxAddSub(), mapColoring(), multiplier(16),
                       alu(32)};
        st->cold_qo.clear();
        for (size_t i = 0; i < kC16; ++i)
            st->cold_qo.push_back(artifact::serializeQo(
                core::compile(st->designs[i].source, optsFor(i))));
        st->cnf = plantedCnf(mix(o.seed ^ 0x250), 250, 1065);
    };
    const std::vector<std::string> names = {"mult4", "mux_add_sub",
                                            "map_coloring", "mul16", "alu32"};
    for (size_t i = 0; i < names.size(); ++i) {
        Op op;
        op.cls = names[i];
        auto checked = std::make_shared<bool>(false);
        op.run = [=](Spans *spans, Clock &clk, size_t) {
            const Design &d = st->designs[i];
            Outcome out;
            clk.start();
            core::CompileResult r = compileOp(d.source, optsFor(i), spans);
            std::string bytes = qoWrite(r, spans);
            core::CompileResult back = qoRead(bytes, spans, &out.qo_load_s);
            clk.stop();
            require(artifact::serializeQo(back) == bytes,
                    ".qo round trip changed the bytes");
            require(i >= kC16 || bytes == st->cold_qo[i],
                    "warm compile differs from the cold compile");
            if (!*checked) {
                // Later rounds must reproduce these bytes exactly, so
                // the functional checks run once per process.
                if (i < kC16)
                    checkEmbedded(back);
                checkForward(back, inputVectors(back, o.seed, 64),
                             [&](const auto &in) {
                                 return expectDesign(d.name, in);
                             });
                *checked = true;
            }
            out.fingerprint = artifact::qoDigestHex(bytes);
            out.physical_qubits = r.stats.physical_qubits;
            out.max_chain = r.stats.max_chain_length;
            return out;
        };
        w.ops.push_back(std::move(op));
    }
    Op sat;
    sat.cls = "cnf_250v";
    sat.run = [=](Spans *spans, Clock &clk, size_t) {
        Outcome out;
        const std::string text = st->cnf.dimacs();
        clk.start();
        core::CompileResult r = compileOp(text, cnfOpts(o.threads), spans);
        std::string bytes = qoWrite(r, spans);
        core::CompileResult back = qoRead(bytes, spans, &out.qo_load_s);
        clk.stop();
        require(artifact::serializeQo(back) == bytes,
                ".qo round trip changed the bytes");
        require(back.dimacs_decode &&
                    back.dimacs_decode->num_vars == st->cnf.num_vars &&
                    back.dimacs_decode->clauses.size() ==
                        st->cnf.clauses.size(),
                "CNF decode info does not match the instance");
        for (size_t c = 0; c < st->cnf.clauses.size(); ++c)
            require(back.dimacs_decode->clauses[c].lits ==
                        st->cnf.clauses[c],
                    "CNF clause changed in the compile");
        out.fingerprint = artifact::qoDigestHex(bytes);
        return out;
    };
    w.ops.push_back(std::move(sat));
    return w;
}

/** Digest of the sampled candidates (not of the request manifest,
 *  which the traced replay does not rebuild). */
std::string
samplesDigest(const service::SampleResult &res)
{
    std::string dump = std::to_string(res.total_reads);
    char buf[64];
    for (const auto &c : res.candidates) {
        std::snprintf(buf, sizeof buf, "|%.17g/%u/%d/", c.energy,
                      c.occurrences, c.valid ? 1 : 0);
        dump += buf;
        for (const auto &[sym, v] : c.values)
            dump += sym + (v ? "1" : "0");
        dump += c.model_line;
    }
    return artifact::qoDigestHex(dump);
}

/** One sampling query of sample_tts. */
struct Query
{
    std::string cls;
    std::string kind; ///< physical / logical
    size_t object;    ///< index into the setup's .qo objects
    std::vector<std::string> pins;
    /** The benchmark's verdict on one decoded candidate. */
    std::function<bool(const core::CompileResult &,
                       const service::SampleResult::Candidate &)>
        check;
};

/**
 * sample_tts: setup compiles and embeds once and keeps the .qo bytes;
 * each op loads a .qo and samples it through service::runLocal with
 * pins.  Physical queries anneal the embedded model (chainflip);
 * the logical query runs packed SA after roof-duality reduction.
 */
Workload
sampleTts(const Options &o, ScratchDirs &dirs)
{
    struct State
    {
        std::vector<std::string> qo; ///< mult4, mux, map (C16), uf20
        Cnf uf20;
    };
    auto st = std::make_shared<State>();
    // The designs, pins, embeddings and CNF instance are fixed so that
    // TTS compares like with like across seeds; --seed drives the
    // sampler streams.
    constexpr uint64_t kEmbedSeed = 1;
    // Reads per query, and sampler-seed variants per query: p (and so
    // TTS) comes from 4 x 250 reads, steady within a few percent across
    // seeds, while a run still fits several ops per class.
    constexpr uint32_t kReads = 250;
    Workload w;
    w.name = "sample_tts";
    w.variants = 4;
    w.setup = [=, &dirs] {
        const std::string dir = dirs.fresh();
        st->qo.clear();
        for (const auto &d : {mult4(), muxAddSub(), mapColoring()})
            st->qo.push_back(artifact::serializeQo(core::compile(
                d.source, chimeraOpts(d, kEmbedSeed, o.threads, dir))));
        dirs.drop(dir);
        st->uf20 = plantedCnf(0x20 * 91, 20, 91);
        st->qo.push_back(artifact::serializeQo(
            core::compile(st->uf20.dimacs(), cnfOpts(o.threads))));
    };
    auto port = [](const core::CompileResult &r,
                   const service::SampleResult::Candidate &c,
                   const char *name) {
        auto v = portValue(r, c.values, name);
        require(v.has_value(), std::string("candidate lacks port ") + name);
        return *v;
    };
    std::vector<Query> queries;
    queries.push_back({"mult4_backward", "physical", 0, {"C[3:0] := 0110"},
                       [=](const auto &r, const auto &c) {
                           return port(r, c, "C") == 6 &&
                               port(r, c, "A") * port(r, c, "B") == 6;
                       }});
    queries.push_back({"mux_add_sub_forward", "physical", 1,
                       {"A[2:0] := 101", "B[2:0] := 011", "sel := 1"},
                       [=](const auto &r, const auto &c) {
                           return port(r, c, "A") == 5 &&
                               port(r, c, "B") == 3 &&
                               port(r, c, "sel") == 1 &&
                               port(r, c, "Y") == 2;
                       }});
    queries.push_back({"mux_add_sub_backward", "physical", 1,
                       {"Y[3:0] := 0101"},
                       [=](const auto &r, const auto &c) {
                           const uint64_t a = port(r, c, "A");
                           const uint64_t b = port(r, c, "B");
                           const uint64_t y =
                               (port(r, c, "sel") ? a - b : a + b) & 15;
                           return port(r, c, "Y") == 5 && y == 5;
                       }});
    queries.push_back({"map_coloring", "physical", 2, {"valid := true"},
                       [=](const auto &r, const auto &c) {
                           std::map<std::string, uint64_t> colors;
                           for (const auto &reg : mapRegions())
                               colors[reg] = port(r, c, reg.c_str());
                           return coloringValid(colors);
                       }});
    queries.push_back({"uf20_91", "logical", 3, {},
                       [st](const auto &, const auto &c) {
                           auto a = parseModelLine(c.model_line, 20);
                           return a && clausesHold(st->uf20, *a);
                       }});
    for (size_t qi = 0; qi < queries.size(); ++qi) {
        Op op;
        op.cls = queries[qi].cls;
        op.kind = queries[qi].kind;
        const Query q = queries[qi];
        op.run = [=](Spans *spans, Clock &clk, size_t variant) {
            service::SampleRequest req;
            req.pins = q.pins;
            req.common.num_reads = kReads;
            req.common.seed = mix(o.seed * 131 + qi * 17 + variant);
            req.common.threads = o.threads;
            req.sweeps = 512;
            req.use_physical = q.kind == "physical";
            req.reduce = !req.use_physical;
            Outcome out;
            clk.start();
            core::Executable exe(qoRead(st->qo[q.object], spans,
                                        &out.qo_load_s));
            service::SampleResult res = spans
                ? tracedRun(exe, req, *spans)
                : service::runLocal(exe, req);
            clk.stop();
            if (spans) {
                // Split the run into layers only if the replay
                // reproduces runLocal; otherwise one enclosing span.
                service::SampleResult ref = service::runLocal(exe, req);
                if (!sameSamples(ref, res)) {
                    for (const char *k :
                         {"core.pin_s", "embed.fix_s", "embed.model_s",
                          "anneal.sample_s", "embed.unembed_s",
                          "anneal.repair_s", "core.decode_s"})
                        spans->v.erase(k);
                    spans->add("core.run_s", clk.wall - out.qo_load_s);
                    spans->add("trace.replay_mismatch", 1);
                    res = std::move(ref);
                }
            }
            double good = 0;
            for (const auto &c : res.candidates) {
                const bool ok = q.check(exe.compiled(), c);
                require(!c.valid || ok,
                        q.cls + ": a valid candidate fails the check");
                if (c.valid && ok)
                    good += c.occurrences;
            }
            if (good == 0)
                throw NoAnswer(q.cls + ": no valid read");
            out.attempts = static_cast<double>(res.total_reads);
            out.correct = good;
            out.fingerprint = samplesDigest(res);
            if (exe.compiled().embedded) {
                out.physical_qubits = exe.compiled().stats.physical_qubits;
                out.max_chain = exe.compiled().stats.max_chain_length;
            }
            return out;
        };
        w.ops.push_back(std::move(op));
    }
    return w;
}

/**
 * verify_oracle: sim::diffCheck against the raw-synthesis reference
 * (no optimizer, no techmap), on clean designs (verdict must be ok)
 * and one XOR<->XNOR-flipped copy (verdict must be mismatch).  One
 * more op builds the reference exactly as `qacc --verify` does, via
 * core::compile with optimization and techmapping off, which today
 * fails for the ALU (the raw netlist does not survive the EDIF round
 * trip) and so counts into failed.
 */
Workload
verifyOracle(const Options &o, ScratchDirs &)
{
    auto designs = std::make_shared<std::vector<Design>>();
    Workload w;
    w.name = "verify_oracle";
    w.setup = [=] {
        *designs = {mult4(), muxAddSub(), multiplier(4), alu(8)};
        for (const auto &d : *designs)
            require(!core::compile(d.source, logicalOpts(d, o.threads))
                         .netlist.ports()
                         .empty(),
                    d.name + " does not synthesize");
    };
    struct Case
    {
        std::string cls;
        size_t design;
        bool flipped;
        bool qacc_reference;
    };
    const std::vector<Case> cases = {
        {"mult4", 0, false, false},       {"mux_add_sub", 1, false, false},
        {"mul4", 2, false, false},        {"alu8", 3, false, false},
        {"mult4_flipped", 0, true, false}, {"alu8_qacc_reference", 3, false, true},
    };
    std::vector<Op> by_case;
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case cs = cases[i];
        Op op;
        op.cls = cs.cls;
        op.run = [=](Spans *spans, Clock &clk, size_t) {
            const Design &d = (*designs)[cs.design];
            Outcome out;
            clk.start();
            core::CompileOptions co = logicalOpts(d, o.threads);
            core::CompileResult compiled = compileOp(d.source, co, spans);
            if (cs.flipped) {
                // Flip one XOR/XNOR (chosen by seed), then regenerate the
                // Hamiltonian from the corrupted netlist.
                auto flip = [&] {
                    std::vector<size_t> xors;
                    auto &gates = compiled.netlist.gates();
                    for (size_t g = 0; g < gates.size(); ++g)
                        if (gates[g].type == cells::GateType::XOR ||
                            gates[g].type == cells::GateType::XNOR)
                            xors.push_back(g);
                    require(!xors.empty(), "no XOR/XNOR gate to flip");
                    auto &g = gates[xors[mix(o.seed) % xors.size()]];
                    g.type = g.type == cells::GateType::XOR
                        ? cells::GateType::XNOR
                        : cells::GateType::XOR;
                    compiled.qmasm_program =
                        qmasm::netlistToQmasm(compiled.netlist, {});
                    compiled.assembled =
                        qmasm::assemble(compiled.qmasm_program, {});
                };
                if (spans)
                    spans->time("qmasm.assemble_s", flip);
                else
                    flip();
            }
            auto buildReference = [&] {
                if (!cs.qacc_reference)
                    return verilog::synthesizeSource(d.source, d.top);
                core::CompileOptions ro = co;
                ro.verilogOpts().optimize = false;
                ro.verilogOpts().do_techmap = false;
                return core::compile(d.source, ro).netlist;
            };
            netlist::Netlist reference =
                spans ? spans->time("sim.reference_compile_s", buildReference)
                      : buildReference();
            sim::DiffCheckOptions vo;
            vo.threads = o.threads;
            vo.seed = mix(o.seed * 7 + i);
            vo.reference = &reference;
            const double tv = now();
            sim::DiffReport rep = sim::diffCheck(compiled, vo);
            out.verify_s = now() - tv;
            clk.stop();
            if (spans) {
                spans->add("sim.diffcheck_s", out.verify_s);
                spans->add("sim.vectors",
                           static_cast<double>(rep.vectors_checked));
                Spans sub;
                const uint64_t disagree =
                    replayEventEval(compiled, vo, rep, sub);
                // The replay stands for diffCheck's simulation only if
                // it sees what the verdict says: no disagreement on a
                // clean design, some on the flipped one.
                if ((disagree > 0) == cs.flipped)
                    spans->merge(sub);
                else
                    spans->add("trace.replay_mismatch", 1);
            }
            require(rep.ok() != cs.flipped,
                    cs.flipped ? "flipped design passed verification"
                               : "clean design failed verification:\n" +
                                   rep.describe());
            out.vectors = static_cast<double>(rep.vectors_checked);
            out.exact = rep.exact_ground_states;
            out.fingerprint = rep.describe();
            return out;
        };
        by_case.push_back(std::move(op));
    }
    // A round runs the four slow checks, each after a slice of 16 runs
    // of the ms-scale mult4 checks, so that every class is sampled
    // across the whole round rather than in one stretch of it.
    for (size_t slow : {1, 2, 3, 5}) {
        for (size_t fast : {0, 4}) {
            w.ops.push_back(by_case[fast]);
            w.ops.back().repeat = 16;
        }
        w.ops.push_back(by_case[slow]);
    }
    return w;
}

// ------------------------------------------------------------ driver

struct Record
{
    std::string cls;
    std::string kind;
    double wall = 0;
    double cpu = 0;
    bool ok = false;
    bool wrong = false; ///< failed an answer or determinism check
    bool first = false; ///< first round of its variant: result metrics
    bool round1 = false; ///< first run in round 1
    bool timed = true;   ///< Op::timed
    Outcome out;
};

struct Run
{
    std::vector<Record> records;
    Spans spans;              ///< traced rounds only
    size_t rounds = 0;
    size_t traced_ops = 0;
    double traced_wall = 0;   ///< sum over ops of the mean traced wall
    double untraced_wall = 0; ///< the same, untraced rounds
};

/**
 * Run whole rounds until @p seconds have passed, ending on a whole
 * cycle of input variants.  The first round of each variant fixes each
 * op's result fingerprint; a later round that differs fails the op.
 * With @p traced, rounds alternate untraced and traced on the same
 * variant, so the traced replay must reproduce the untraced results
 * exactly and the overhead compares like rounds.
 */
Run
measure(Workload &w, double seconds, bool traced, CorePicker &cores)
{
    Run run;
    const size_t n = w.ops.size();
    const size_t step = traced ? 2 : 1;
    const size_t cycle = step * w.variants;
    std::vector<std::optional<std::string>> first(n * w.variants);
    std::vector<double> wall_sum[2] = {std::vector<double>(n, 0.0),
                                       std::vector<double>(n, 0.0)};
    size_t rounds_of[2] = {0, 0};
    const double start = now();
    while (run.rounds < cycle || now() - start < seconds ||
           run.rounds % cycle != 0) {
        const bool tracing = traced && run.rounds % 2 == 1;
        const size_t variant = (run.rounds / step) % w.variants;
        for (size_t i = 0; i < n; ++i) {
            Op &op = w.ops[i];
            for (size_t rep = 0; rep < op.repeat; ++rep) {
                // Untimed ops may start threads of their own.
                if (op.timed)
                    cores.maybe();
                else
                    cores.release();
                Record rec;
                rec.cls = op.cls;
                rec.kind = op.kind;
                rec.timed = op.timed;
                std::string result;
                Spans spans;
                Clock clk;
                try {
                    rec.out =
                        op.run(tracing ? &spans : nullptr, clk, variant);
                    result = rec.out.fingerprint;
                    rec.ok = true;
                } catch (const WrongAnswer &e) {
                    rec.wrong = true;
                    result = std::string("wrong: ") + e.what();
                } catch (const std::exception &e) {
                    // Typed errors (FatalError: no embedding, ...) and
                    // NoAnswer: a failed op, not a wrong answer.
                    result = std::string("error: ") + e.what();
                }
                if (clk.running)
                    clk.stop();
                rec.wall = clk.wall;
                rec.cpu = clk.cpu;
                auto &ref = first[variant * n + i];
                if (!ref) {
                    ref = result;
                    rec.first = true;
                    rec.round1 = run.rounds == 0 && rep == 0;
                } else if (*ref != result) {
                    rec.ok = false;
                    rec.wrong = true;
                    result = "result differs from the variant's first run";
                }
                wall_sum[tracing][i] += rec.wall;
                if (tracing) {
                    run.spans.merge(spans);
                    run.spans.add("op_wall_s", rec.wall);
                    ++run.traced_ops;
                }
                if (!rec.ok)
                    std::fprintf(stderr, "op %s failed after %.3f s: %s\n",
                                 op.cls.c_str(), rec.wall,
                                 result.substr(0, 300).c_str());
                run.records.push_back(std::move(rec));
            }
        }
        ++rounds_of[tracing];
        ++run.rounds;
    }
    if (traced)
        for (size_t i = 0; i < n; ++i) {
            run.untraced_wall += wall_sum[0][i] / double(rounds_of[0]);
            run.traced_wall += wall_sum[1][i] / double(rounds_of[1]);
        }
    return run;
}

void
printJsonMetric(std::string &json, const std::string &name, double value,
                const char *unit)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name.c_str(), value, unit);
    json += buf;
}

struct PerLayer
{
    const char *name;
    const char *unit;
};

/** The per-layer metrics every traced run prints (BENCHMARK.json). */
const std::vector<PerLayer> &
perLayerMetrics()
{
    static const std::vector<PerLayer> m = {
        {"embed.find_s", "s"},
        {"embed.find_calls", "count"},
        {"embed.find_ok_frac", "frac"},
        {"embed.physical_qubits", "count"},
        {"embed.max_chain", "count"},
        {"embed.model_s", "s"},
        {"embed.fix_s", "s"},
        {"embed.vars_fixed", "count"},
        {"embed.unembed_s", "s"},
        {"embed.chain_break_frac", "frac"},
        {"chimera.graph_s", "s"},
        {"artifact.cache_lookup_s", "s"},
        {"artifact.cache_hit_frac", "frac"},
        {"artifact.cache_store_s", "s"},
        {"artifact.qo_write_s", "s"},
        {"artifact.qo_read_s", "s"},
        {"artifact.qo_bytes", "bytes"},
        {"verilog.synth_s", "s"},
        {"netlist.opt_s", "s"},
        {"netlist.techmap_s", "s"},
        {"netlist.gates", "count"},
        {"edif.write_s", "s"},
        {"edif.read_s", "s"},
        {"qmasm.edif2qmasm_s", "s"},
        {"qmasm.assemble_s", "s"},
        {"qmasm.logical_vars", "count"},
        {"qmasm.logical_terms", "count"},
        {"dimacs.parse_s", "s"},
        {"dimacs.lower_s", "s"},
        {"sim.xlint_s", "s"},
        {"anneal.sample_s", "s"},
        {"anneal.spin_updates", "count"},
        {"anneal.ns_per_update", "ns"},
        {"anneal.repair_s", "s"},
        {"anneal.valid_read_frac", "frac"},
        {"core.stats_s", "s"},
        {"core.pin_s", "s"},
        {"core.decode_s", "s"},
        {"core.run_s", "s"},
        {"sim.diffcheck_s", "s"},
        {"sim.reference_compile_s", "s"},
        {"sim.vectors", "count"},
        {"sim.event_eval_s", "s"},
        {"unattributed_frac", "frac"},
        {"trace_overhead_frac", "frac"},
    };
    return m;
}

int
benchMain(const Options &o)
{
    setVerbosity(0);
    ScratchDirs dirs;
    Workload w;
    if (o.workload == "compile_cold")
        w = compileCold(o, dirs);
    else if (o.workload == "compile_warm")
        w = compileWarm(o, dirs);
    else if (o.workload == "sample_tts")
        w = sampleTts(o, dirs);
    else
        w = verifyOracle(o, dirs);

    // Set-up runs at least --setups times and, while it is cheap,
    // until half a second has passed (at most 50 times), so that a
    // ms-scale set-up still gives a steady median.  setup_s is the
    // median of its CPU time.
    std::vector<double> setups, setup_walls;
    CorePicker cores(o.threads == 1);
    const double setup_start = now();
    while (setups.size() < o.setups ||
           (setups.size() < 50 && now() - setup_start < 0.5)) {
        cores.maybe();
        Clock clk;
        clk.start();
        w.setup();
        clk.stop();
        setups.push_back(clk.cpu);
        setup_walls.push_back(clk.wall);
    }

    Run run = measure(w, o.seconds, o.trace, cores);

    // ---- aggregate
    const auto &recs = run.records;
    size_t failed = 0;
    std::map<std::string, std::vector<double>> cls_walls, cls_cpus;
    struct Hits
    {
        double correct = 0, attempts = 0, ops = 0;
    };
    std::map<std::string, Hits> cls_hits; ///< first round of each variant
    std::map<std::string, std::string> cls_kind;
    double qubits = 0, qubit_ops = 0, exact_ops = 0, first_ok = 0,
           vectors = 0, verify_s = 0;
    std::vector<double> qo_loads;
    for (const auto &r : recs) {
        if (!r.ok) {
            ++failed;
            continue;
        }
        if (!r.timed)
            continue;
        cls_walls[r.cls].push_back(r.wall);
        cls_cpus[r.cls].push_back(r.cpu);
        cls_kind[r.cls] = r.kind;
        if (r.first) {
            cls_hits[r.cls].correct += r.out.correct;
            cls_hits[r.cls].attempts += r.out.attempts;
            cls_hits[r.cls].ops += 1;
            exact_ops += r.out.exact ? 1 : 0;
            ++first_ok;
        }
        if (r.out.qo_load_s > 0)
            qo_loads.push_back(r.out.qo_load_s);
        vectors += r.out.vectors;
        verify_s += r.out.verify_s;
    }
    // Result metrics come from round 1 (later rounds repeat it).
    std::map<std::string, std::pair<double, double>> cls_qubits;
    for (const auto &r : recs)
        if (r.round1 && r.ok && r.out.physical_qubits) {
            const double q = static_cast<double>(r.out.physical_qubits);
            qubits += q;
            ++qubit_ops;
            cls_qubits[r.cls].first += q;
            cls_qubits[r.cls].second += 1;
        }
    // TTS and valid-read fractions use every variant's first round.
    // TTS(0.99) per class: median op wall per attempt times the
    // attempts needed for 99% confidence.
    // tts99_cpu_s does the same with the median op CPU time.
    std::map<std::string, double> cls_tts, cls_p;
    std::vector<double> tts_all, tts_cpu, tts_phys, tts_logi;
    std::map<std::string, bool> cls_sampled;
    for (const auto &[cls, ws] : cls_walls) {
        const Hits &h = cls_hits[cls];
        const double per_op = h.attempts / h.ops;
        const double p = h.correct / h.attempts;
        const double t = median(ws) / per_op * attemptsTo99(p);
        cls_p[cls] = p;
        cls_tts[cls] = t;
        cls_sampled[cls] = per_op > 1;
        tts_all.push_back(t);
        tts_cpu.push_back(median(cls_cpus[cls]) / per_op * attemptsTo99(p));
        if (cls_kind[cls] == "physical")
            tts_phys.push_back(t);
        if (cls_kind[cls] == "logical")
            tts_logi.push_back(t);
    }
    // Latency: per-class median and tail (ops of one class are alike;
    // pooled percentiles of a mixed round would sit on class
    // boundaries), combined over classes by geometric mean.
    std::vector<double> cls_p50s, cls_tails, cls_cpu_p50s;
    for (const auto &[cls, ws] : cls_walls) {
        cls_p50s.push_back(median(ws));
        cls_tails.push_back(tail(ws).value);
        cls_cpu_p50s.push_back(median(cls_cpus[cls]));
    }
    const double p50 = geomean(cls_p50s);
    const double tail_s = geomean(cls_tails);
    const double cpu_p50 = geomean(cls_cpu_p50s);

    // ---- human-readable report
    std::printf("workload %s  seed %llu  threads %u  rounds %zu  ops %zu  "
                "core picks %zu\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                o.threads, run.rounds, recs.size(), cores.picks());
    std::printf("  setup_s             %.6f CPU, %.6f wall (median of %zu)\n",
                median(setups), median(setup_walls), setups.size());
    std::printf("  fail_frac           %.6f (%zu/%zu)\n",
                recs.empty() ? 0.0 : double(failed) / double(recs.size()),
                failed, recs.size());
    std::printf("  op_cpu_p50_s        %.6f (geomean of class CPU p50)\n",
                cpu_p50);
    std::printf("  tts99_cpu_s         %.6f\n", geomean(tts_cpu));
    std::printf("  op_p50_s            %.6f (geomean of class wall p50)\n",
                p50);
    std::printf("  tts99_s             %.6f (wall)\n", geomean(tts_all));
    std::printf("  op_tail_s           %.6f (geomean of class tails)\n",
                tail_s);
    for (const auto &[cls, ws] : cls_walls) {
        const Tail t = tail(ws);
        std::printf("    %-22s p50 %.6f s  p%u %.6f s  n=%zu  p=%.4f  "
                    "tts99 %.6f s  CPU p50 %.6f s\n",
                    cls.c_str(), median(ws), t.percentile, t.value,
                    ws.size(), cls_p[cls], cls_tts[cls],
                    median(cls_cpus[cls]));
        if (cls_qubits.count(cls))
            std::printf("    %-22s physical qubits mean %.2f over %.0f "
                        "embedding(s)\n", "", cls_qubits[cls].first /
                        cls_qubits[cls].second, cls_qubits[cls].second);
    }
    if (qubit_ops > 0)
        std::printf("  physical_qubits_mean %.2f\n", qubits / qubit_ops);
    if (!qo_loads.empty())
        std::printf("  qo_load_p50_s       %.6f (n=%zu)\n", median(qo_loads),
                    qo_loads.size());
    if (!tts_phys.empty())
        std::printf("  tts99_physical_s    %.6f\n", geomean(tts_phys));
    if (!tts_logi.empty())
        std::printf("  tts99_logical_s     %.6f\n", geomean(tts_logi));
    if (vectors > 0)
        std::printf("  verify_vectors_per_s %.2f  verify_exact_frac %.4f\n",
                    vectors / verify_s,
                    exact_ops / first_ok);

    // ---- deterministic result metrics (the determinism self-check)
    std::string result = "{\"fail_frac\": " +
        std::to_string(recs.empty() ? 0.0 : double(failed) / recs.size());
    if (qubit_ops > 0)
        result += ", \"physical_qubits_mean\": " +
            std::to_string(qubits / qubit_ops);
    for (const auto &[cls, p] : cls_p)
        if (cls_sampled[cls])
            result += ", \"valid_read_frac." + cls + "\": " +
                std::to_string(p);
    if (vectors > 0)
        result += ", \"verify_exact_frac\": " +
            std::to_string(exact_ops / first_ok);
    std::string prints;
    for (const auto &r : recs)
        if (r.first)
            prints += r.ok ? r.out.fingerprint : "failed";
    result += ", \"round_digest\": \"" + artifact::qoDigestHex(prints) +
        "\"}";
    std::printf("# result %s\n", result.c_str());

    // ---- the result line
    std::string metrics;
    if (!o.trace) {
        printJsonMetric(metrics, "setup_s", median(setups), "s");
        printJsonMetric(metrics, "op_cpu_p50_s", cpu_p50, "s");
        printJsonMetric(metrics, "tts99_cpu_s", geomean(tts_cpu), "s");
        printJsonMetric(metrics, "peak_rss_mb", peakRssMb(), "MB");
    } else {
        const Spans &s = run.spans;
        const double ops = static_cast<double>(run.traced_ops);
        std::map<std::string, double> v;
        for (const auto &m : perLayerMetrics())
            if (std::strcmp(m.unit, "frac") != 0)
                v[m.name] = s.get(m.name) / ops;
        const double calls = s.get("embed.find_calls");
        v["embed.find_ok_frac"] = calls > 0 ? s.get("embed.find_ok") / calls
                                            : 0.0;
        v["embed.physical_qubits"] = qubit_ops > 0 ? qubits / qubit_ops : 0.0;
        double max_chain = 0;
        for (const auto &r : recs)
            max_chain = std::max(max_chain, double(r.out.max_chain));
        v["embed.max_chain"] = max_chain;
        const double slots = s.get("embed.chain_slots");
        v["embed.chain_break_frac"] =
            slots > 0 ? s.get("embed.chain_breaks") / slots : 0.0;
        const double probes = s.get("artifact.cache_probes");
        v["artifact.cache_hit_frac"] =
            probes > 0 ? s.get("artifact.cache_hits") / probes : 0.0;
        const double updates = s.get("anneal.spin_updates");
        v["anneal.ns_per_update"] =
            updates > 0 ? 1e9 * s.get("anneal.sample_s") / updates : 0.0;
        double good = 0, tries = 0;
        for (const auto &[cls, hits] : cls_hits)
            if (cls_sampled[cls]) {
                good += hits.correct;
                tries += hits.attempts;
            }
        v["anneal.valid_read_frac"] = tries > 0 ? good / tries : 0.0;
        double spanned = 0;
        for (const auto &k : topLevelSpans())
            spanned += s.get(k);
        const double op_wall = s.get("op_wall_s");
        v["unattributed_frac"] =
            op_wall > 0 ? std::max(0.0, 1.0 - spanned / op_wall) : 0.0;
        v["trace_overhead_frac"] = run.untraced_wall > 0
            ? run.traced_wall / run.untraced_wall - 1.0
            : 0.0;
        std::printf("  traced: unattributed_frac %.4f  "
                    "trace_overhead_frac %.4f  replay mismatches %.0f\n",
                    v["unattributed_frac"], v["trace_overhead_frac"],
                    s.get("trace.replay_mismatch"));
        // Each layer's share of the traced op wall time, largest first
        // (sim.event_eval_s is a share of sim.diffcheck_s).
        std::vector<std::pair<double, std::string>> shares;
        for (const auto &k : topLevelSpans())
            if (s.get(k) > 0 && op_wall > 0)
                shares.push_back({s.get(k) / op_wall, k});
        std::sort(shares.rbegin(), shares.rend());
        std::string line;
        for (const auto &[share, k] : shares)
            line += (line.empty() ? "" : ", ") +
                ("\"" + k + "\": " + std::to_string(share));
        std::printf("# layers {%s}\n", line.c_str());
        for (const auto &m : perLayerMetrics())
            printJsonMetric(metrics, m.name, v[m.name], m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                // A failed op (a typed error such as the CNF that does not
                // embed, or zero valid reads) counts in "failed";
                // "correct" is false only when an answer is wrong.
                [&] {
                    for (const auto &r : recs)
                        if (r.wrong)
                            return "false";
                    return "true";
                }(),
                recs.size(), failed, metrics.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options o = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::benchMain(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qac_perfbench: %s\n", e.what());
        return 1;
    }
}
