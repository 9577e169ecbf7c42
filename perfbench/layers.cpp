#include "layers.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "qac/anneal/descent.h"
#include "qac/anneal/sampler.h"
#include "qac/artifact/cache.h"
#include "qac/chimera/chimera.h"
#include "qac/core/frontend.h"
#include "qac/core/pins.h"
#include "qac/dimacs/dimacs.h"
#include "qac/dimacs/lower.h"
#include "qac/edif/reader.h"
#include "qac/edif/writer.h"
#include "qac/embed/embed_model.h"
#include "qac/embed/minorminer.h"
#include "qac/embed/roof_duality.h"
#include "qac/ising/compiled.h"
#include "qac/netlist/opt.h"
#include "qac/netlist/techmap.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/qmasm/stdcell_lib.h"
#include "qac/sim/event_sim.h"
#include "qac/sim/xlint.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"
#include "qac/util/strings.h"
#include "qac/verilog/synth.h"

namespace perfbench {

using namespace qac;

const std::vector<std::string> &
topLevelSpans()
{
    static const std::vector<std::string> keys = {
        // compile side (core.stats_s: the Section 6.1 line counts)
        "core.stats_s", "verilog.synth_s", "netlist.opt_s", "netlist.techmap_s",
        "edif.write_s", "edif.read_s", "qmasm.edif2qmasm_s",
        "dimacs.parse_s", "dimacs.lower_s", "sim.xlint_s",
        "qmasm.assemble_s", "chimera.graph_s", "artifact.cache_lookup_s",
        "embed.find_s", "artifact.cache_store_s", "embed.model_s",
        "artifact.qo_write_s", "artifact.qo_read_s",
        // run side
        "core.pin_s", "embed.fix_s", "anneal.sample_s", "embed.unembed_s",
        "anneal.repair_s", "core.decode_s", "core.run_s",
        // verify side (sim.event_eval_s nests inside sim.diffcheck_s)
        "sim.reference_compile_s", "sim.diffcheck_s",
    };
    return keys;
}

namespace {

std::vector<std::pair<uint32_t, uint32_t>>
edgesOf(const ising::IsingModel &m)
{
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const auto &t : m.quadraticTerms())
        edges.emplace_back(t.i, t.j);
    return edges;
}

/** Verilog half of the pipeline (core/verilog_frontend.cpp). */
core::FrontendOutput
verilogStages(const std::string &source, const core::CompileOptions &opts,
              Spans &s)
{
    const verilog::FrontendOptions &fo = opts.verilogOpts();
    core::FrontendOutput out;
    verilog::SynthOptions sopts;
    sopts.top_params = fo.top_params;
    netlist::Netlist nl = s.time("verilog.synth_s", [&] {
        return verilog::synthesizeSource(source, fo.top, sopts);
    });
    if (nl.isSequential())
        fatal("traced compile: sequential designs are not benchmarked");
    if (fo.optimize)
        s.time("netlist.opt_s", [&] { netlist::optimize(nl); });
    if (fo.do_techmap) {
        s.time("netlist.techmap_s",
               [&] { netlist::techMap(nl, fo.techmap); });
        if (fo.optimize)
            s.time("netlist.opt_s", [&] { netlist::optimize(nl); });
    }
    out.edif_text =
        s.time("edif.write_s", [&] { return edif::writeEdif(nl); });
    out.netlist = s.time("edif.read_s",
                         [&] { return edif::readEdif(out.edif_text); });
    out.program = s.time("qmasm.edif2qmasm_s", [&] {
        return qmasm::netlistToQmasm(out.netlist);
    });
    s.time("core.stats_s", [&] {
        qmasm::Program main_only;
        main_only.statements = out.program.statements;
        out.qmasm_lines = main_only.lineCount();
        out.stdcell_lines = countLines(qmasm::stdcellText());
    });
    s.add("netlist.gates", static_cast<double>(out.netlist.numGates()));
    return out;
}

/** DIMACS half of the pipeline (core/dimacs_frontend.cpp). */
core::FrontendOutput
dimacsStages(const std::string &source, const core::CompileOptions &opts,
             Spans &s)
{
    core::FrontendOutput out;
    dimacs::Instance inst = s.time(
        "dimacs.parse_s", [&] { return dimacs::parseDimacs(source); });
    dimacs::Lowered lowered = s.time("dimacs.lower_s", [&] {
        return dimacs::lower(inst, opts.dimacsOpts());
    });
    out.program = std::move(lowered.program);
    out.qmasm_lines = s.time("core.stats_s",
                             [&] { return out.program.lineCount(); });
    out.dimacs_decode = std::move(lowered.decode);
    return out;
}

} // namespace

core::CompileResult
tracedCompile(const std::string &source, const core::CompileOptions &opts,
              Spans &s)
{
    core::CompileResult res;
    s.time("core.stats_s", [&] {
        res.stats.source_lines = countLines(source);
        res.frontend = core::makeFrontend(opts.frontend)->name();
    });
    core::FrontendOutput out;
    if (res.frontend == "verilog")
        out = verilogStages(source, opts, s);
    else if (res.frontend == "dimacs")
        out = dimacsStages(source, opts, s);
    else
        fatal("traced compile: no replay for frontend '%s'",
              res.frontend.c_str());
    res.netlist = std::move(out.netlist);
    res.edif_text = std::move(out.edif_text);
    res.qmasm_program = std::move(out.program);
    res.dimacs_decode = std::move(out.dimacs_decode);
    res.stats.qmasm_lines = out.qmasm_lines;
    res.stats.stdcell_lines = out.stdcell_lines;
    s.time("core.stats_s", [&] {
        res.stats.edif_lines =
            res.edif_text.empty() ? 0 : countLines(res.edif_text);
    });

    if (!res.netlist.ports().empty())
        s.time("sim.xlint_s",
               [&] { sim::xLint(res.netlist, /*warn_offenders=*/true); });

    auto assemble = [&](const qmasm::AssembleOptions &aopts) {
        res.assembled = s.time("qmasm.assemble_s", [&] {
            return qmasm::assemble(res.qmasm_program, aopts);
        });
        res.stats.logical_vars = res.assembled.model.numVars();
        res.stats.logical_terms = res.assembled.model.numTerms();
    };
    assemble(opts.assemble);
    res.stats.gates = res.netlist.numGates();

    if (opts.target == core::Target::Chimera) {
        chimera::HardwareGraph hw = s.time("chimera.graph_s", [&] {
            chimera::HardwareGraph g =
                chimera::chimeraGraph(opts.chimera_size);
            chimera::applyDropout(g, opts.qubit_dropout, opts.embed.seed);
            return g;
        });
        embed::EmbedParams params = opts.embed;
        if (params.threads == 0)
            params.threads = opts.threads;
        std::optional<artifact::Cache> cache;
        s.time("artifact.cache_lookup_s", [&] { cache.emplace(opts.cache); });

        auto embedCached = [&](const ising::IsingModel &model)
            -> std::optional<embed::Embedding> {
            auto edges = edgesOf(model);
            auto find = [&] {
                auto emb = s.time("embed.find_s", [&] {
                    return embed::findEmbedding(edges, model.numVars(), hw,
                                                params);
                });
                s.add("embed.find_calls", 1);
                s.add("embed.find_ok", emb ? 1 : 0);
                return emb;
            };
            if (!cache->enabled())
                return find();
            artifact::EmbeddingProbe probe;
            const uint64_t key = s.time("artifact.cache_lookup_s", [&] {
                uint64_t k = artifact::embeddingCacheKey(model, hw, params);
                probe = artifact::lookupEmbedding(*cache, k, edges, hw);
                return k;
            });
            s.add("artifact.cache_probes", 1);
            if (probe.hit) {
                s.add("artifact.cache_hits", 1);
                if (!probe.embeddable)
                    return std::nullopt;
                return std::move(probe.embedding);
            }
            auto emb = find();
            s.time("artifact.cache_store_s",
                   [&] { artifact::storeEmbedding(*cache, key, emb); });
            return emb;
        };

        auto emb = embedCached(res.assembled.model);
        if (!emb && opts.assemble.merge_chains) {
            qmasm::AssembleOptions unmerged = opts.assemble;
            unmerged.merge_chains = false;
            assemble(unmerged);
            emb = embedCached(res.assembled.model);
        }
        if (!emb)
            fatal("could not embed %zu logical variables into C%u",
                  res.assembled.model.numVars(), opts.chimera_size);
        res.embedding = std::move(*emb);
        res.embedded = s.time("embed.model_s", [&] {
            return embed::embedModel(res.assembled.model, *res.embedding,
                                     hw, opts.embed_model);
        });
        res.hardware = std::move(hw);
        res.stats.physical_qubits = res.embedded->numPhysicalQubits();
        res.stats.physical_terms = res.embedded->physical.numTerms();
        res.stats.max_chain_length = res.embedding->maxChainLength();
    }
    s.add("qmasm.logical_vars", static_cast<double>(res.stats.logical_vars));
    s.add("qmasm.logical_terms",
          static_cast<double>(res.stats.logical_terms));
    return res;
}

service::SampleResult
tracedRun(const core::Executable &exe, const service::SampleRequest &req,
          Spans &s)
{
    const core::CompileResult &compiled = exe.compiled();
    std::vector<core::PinSpec> pins = exe.pins();
    ising::IsingModel logical = s.time("core.pin_s", [&] {
        for (const auto &directive : req.pins)
            for (auto &p : core::parsePinDirective(directive,
                                                   compiled.netlist))
                pins.push_back(std::move(p));
        // The pin penalty Executable::run applies (core/program.cpp).
        ising::IsingModel model = compiled.assembled.model;
        const auto &adj = model.adjacency();
        for (const auto &pin : pins) {
            uint32_t v = compiled.assembled.var(pin.symbol);
            double mass = std::abs(compiled.assembled.model.linear(v));
            for (const auto &[j, w] : adj[v]) {
                (void)j;
                mass += std::abs(w);
            }
            model.addLinear(v, pin.value ? -(mass + 1.0) : mass + 1.0);
        }
        return model;
    });

    embed::FixResult fix;
    const ising::IsingModel *to_solve = &logical;
    if (req.reduce) {
        fix = s.time("embed.fix_s",
                     [&] { return embed::fixVariables(logical); });
        to_solve = &fix.reduced;
        s.add("embed.vars_fixed", static_cast<double>(fix.numFixed()));
    }
    std::optional<embed::EmbeddedModel> em;
    if (req.use_physical) {
        if (req.reduce || !compiled.embedding || !compiled.hardware)
            fatal("traced run: physical queries must run unreduced on "
                  "a compiled embedding");
        em = s.time("embed.model_s", [&] {
            return embed::embedModel(*to_solve, *compiled.embedding,
                                     *compiled.hardware);
        });
    }
    const ising::IsingModel &sample_model = em ? em->physical : *to_solve;
    std::string solver = req.solver;
    if (solver == "sa" && em)
        solver = "chainflip";
    anneal::SamplerOpts sopts;
    sopts.common = req.common;
    sopts.common.seed = service::requestSeed(req.common.seed,
                                             req.request_id);
    sopts.sweeps = req.sweeps;
    sopts.greedy_polish = true;
    if (em)
        sopts.chains = em->dense_chains;
    anneal::SampleSet set = s.time("anneal.sample_s", [&] {
        return anneal::makeSampler(solver, sopts)->sample(sample_model);
    });
    s.add("anneal.spin_updates",
          static_cast<double>(set.totalReads()) * req.sweeps *
              static_cast<double>(sample_model.numVars()));

    service::SampleResult out;
    out.total_reads = set.totalReads();
    out.vars_sampled = sample_model.numVars();
    out.vars_fixed = req.reduce ? fix.numFixed() : 0;
    std::optional<ising::CompiledModel> kernel;
    std::optional<ising::LocalFieldState> state;
    if (em) {
        kernel.emplace(*to_solve);
        state.emplace(*kernel);
    }
    std::map<ising::SpinVector, size_t> dedup;
    uint64_t weighted_breaks = 0;
    for (const auto &smp : set.samples()) {
        size_t breaks = 0;
        ising::SpinVector solved = smp.spins;
        if (em) {
            std::vector<uint32_t> broken;
            solved = s.time("embed.unembed_s", [&] {
                return em->unembed(smp.spins, &breaks, &broken);
            });
            weighted_breaks += breaks * smp.num_occurrences;
            s.time("anneal.repair_s", [&] {
                state->reset(solved);
                anneal::greedyDescent(*state);
                solved = state->spins();
            });
        }
        s.time("core.decode_s", [&] {
            ising::SpinVector full = req.reduce ? fix.lift(solved) : solved;
            auto [it, inserted] = dedup.emplace(full, out.candidates.size());
            if (!inserted) {
                out.candidates[it->second].occurrences +=
                    smp.num_occurrences;
                return;
            }
            service::SampleResult::Candidate c;
            c.energy = logical.energy(full);
            c.occurrences = smp.num_occurrences;
            c.chain_breaks = breaks;
            c.values = compiled.assembled.visibleValues(full);
            bool ok = compiled.assembled.checkAsserts(full);
            for (const auto &pin : pins)
                if (compiled.assembled.symbolValue(full, pin.symbol) !=
                    pin.value)
                    ok = false;
            if (compiled.dimacs_decode) {
                const auto &dec = *compiled.dimacs_decode;
                auto boolOf = [&](uint32_t v) {
                    const std::string sym = dimacs::varSymbol(v);
                    return compiled.assembled.hasSymbol(sym) &&
                           compiled.assembled.symbolValue(full, sym);
                };
                dimacs::ClauseEval ev = dimacs::evaluateClauses(dec, boolOf);
                c.model_line = dimacs::modelLine(dec, boolOf);
                c.clauses_satisfied = ev.clauses_satisfied;
                c.clauses_total = ev.clauses_total;
                c.weight_violated = ev.violated_weight;
                ok = ok && ev.hardOk();
            }
            c.valid = ok;
            out.candidates.push_back(std::move(c));
        });
    }
    s.time("core.decode_s", [&] {
        std::stable_sort(out.candidates.begin(), out.candidates.end(),
                         [](const auto &a, const auto &b) {
                             return a.energy < b.energy;
                         });
    });
    if (em && out.total_reads > 0 && !em->dense_chains.empty()) {
        s.add("embed.chain_breaks", static_cast<double>(weighted_breaks));
        s.add("embed.chain_slots",
              static_cast<double>(out.total_reads) *
                  static_cast<double>(em->dense_chains.size()));
    }
    return out;
}

bool
sameSamples(const service::SampleResult &a, const service::SampleResult &b)
{
    if (a.total_reads != b.total_reads || a.vars_sampled != b.vars_sampled ||
        a.vars_fixed != b.vars_fixed ||
        a.candidates.size() != b.candidates.size())
        return false;
    for (size_t i = 0; i < a.candidates.size(); ++i) {
        const auto &x = a.candidates[i];
        const auto &y = b.candidates[i];
        if (x.values != y.values || x.energy != y.energy ||
            x.occurrences != y.occurrences || x.valid != y.valid ||
            x.chain_breaks != y.chain_breaks ||
            x.model_line != y.model_line)
            return false;
    }
    return true;
}

uint64_t
replayEventEval(const core::CompileResult &compiled,
                const sim::DiffCheckOptions &opts,
                const sim::DiffReport &report, Spans &s)
{
    const netlist::Netlist &ref =
        opts.reference ? *opts.reference : compiled.netlist;
    std::vector<const netlist::Port *> in_ports, out_ports;
    size_t input_bits = 0;
    for (const auto &p : ref.ports()) {
        if (p.dir == netlist::PortDir::Input) {
            in_ports.push_back(&p);
            input_bits += p.width();
        } else if (compiled.netlist.findPort(p.name)) {
            out_ports.push_back(&p);
        }
    }
    const bool exhaustive =
        input_bits <= opts.exhaustive_bits && input_bits < 64;
    // The vector sequence diffCheck draws (sim/diff_check.cpp).
    std::vector<std::vector<uint64_t>> vectors;
    Rng rng(opts.seed);
    for (uint64_t vec = 0; vec < report.vectors_checked; ++vec) {
        uint64_t k = vec;
        std::vector<uint64_t> values;
        for (const auto *p : in_ports) {
            const size_t w = p->width();
            const uint64_t mask =
                w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
            values.push_back(exhaustive ? (k & mask) : (rng.next() & mask));
            k >>= w;
        }
        vectors.push_back(std::move(values));
    }
    return s.time("sim.event_eval_s", [&] {
        sim::EventSimulator sim_ref(ref);
        sim::EventSimulator sim_cmp(compiled.netlist);
        uint64_t disagree = 0;
        for (const auto &values : vectors) {
            for (size_t i = 0; i < in_ports.size(); ++i) {
                sim_ref.setInput(in_ports[i]->name, values[i]);
                if (compiled.netlist.findPort(in_ports[i]->name))
                    sim_cmp.setInput(in_ports[i]->name, values[i]);
            }
            sim_ref.eval();
            sim_cmp.eval();
            bool same = true;
            for (const auto *p : out_ports)
                same = same && sim_ref.portKnown(p->name) &&
                       sim_cmp.portKnown(p->name) &&
                       sim_ref.output(p->name) == sim_cmp.output(p->name);
            disagree += same ? 0 : 1;
        }
        return disagree;
    });
}

} // namespace perfbench
