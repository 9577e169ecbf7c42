/**
 * @file
 * The Verilog frontend adapter: synthesis (the Yosys step) ->
 * sequential unrolling -> ABC-style optimization -> technology
 * mapping -> EDIF emission/re-ingestion -> edif2qmasm.  This is the
 * language-specific half of the original compile() pipeline, behind
 * the core::Frontend registry.
 */

#include "qac/core/frontend.h"

#include "qac/cells/gate.h"
#include "qac/edif/reader.h"
#include "qac/edif/writer.h"
#include "qac/netlist/opt.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/qmasm/stdcell_lib.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "qac/verilog/synth.h"

namespace qac::core {

namespace {

// Cell-type histogram of the final mapped netlist (the paper's Table 5
// mix), published under netlist.cells.<NAME>.
void
recordCellHistogram(const netlist::Netlist &nl)
{
    if (!stats::Registry::global().enabled())
        return;
    size_t hist[cells::kNumGateTypes] = {};
    for (const auto &g : nl.gates())
        ++hist[static_cast<size_t>(g.type)];
    for (size_t t = 0; t < cells::kNumGateTypes; ++t) {
        if (hist[t] == 0)
            continue;
        stats::gauge(std::string("netlist.cells.") +
                         cells::gateInfo(static_cast<cells::GateType>(t)).name,
                     hist[t]);
    }
}

class VerilogFrontend : public Frontend
{
  public:
    std::string name() const override { return "verilog"; }

    FrontendOutput
    parse(const std::string &source,
          const CompileOptions &opts) const override
    {
        const verilog::FrontendOptions &fo = opts.verilogOpts();
        FrontendOutput out;

        // 1. Synthesis (the Yosys step).
        verilog::SynthOptions sopts;
        sopts.top_params = fo.top_params;
        netlist::Netlist nl =
            verilog::synthesizeSource(source, fo.top, sopts);

        // 2. Sequential unrolling (Section 4.3.3).
        if (nl.isSequential()) {
            if (fo.unroll_steps == 0)
                fatal("module '%s' is sequential; set unroll_steps",
                      fo.top.c_str());
            stats::ScopedTimer t("compile.unroll");
            nl = netlist::unrollSequential(nl, fo.unroll_steps,
                                           fo.unroll);
        }

        // 3. ABC-style optimization and technology mapping.
        if (fo.optimize)
            netlist::optimize(nl);
        if (fo.do_techmap) {
            netlist::techMap(nl, fo.techmap);
            if (fo.optimize)
                netlist::optimize(nl);
        }

        // 4. EDIF emission and re-ingestion: the pipeline genuinely
        // passes through the interchange format, as the paper's does.
        out.edif_text = edif::writeEdif(nl);
        out.netlist = edif::readEdif(out.edif_text);
        recordCellHistogram(out.netlist);

        // 5. edif2qmasm.
        out.program = qmasm::netlistToQmasm(out.netlist);
        {
            // Count the main program without the standard-cell macros,
            // the way Section 6.1 reports "736 lines of QMASM
            // (excluding the 232 lines in the standard-cell library)".
            qmasm::Program main_only;
            main_only.statements = out.program.statements;
            out.qmasm_lines = main_only.lineCount();
            out.stdcell_lines = countLines(qmasm::stdcellText());
        }
        return out;
    }
};

} // namespace

void
registerVerilogFrontend()
{
    registerFrontend(
        "verilog", [] { return std::make_unique<VerilogFrontend>(); },
        {"v"});
}

} // namespace qac::core
