/**
 * @file
 * Event-driven 4-state simulation over the gate-level netlist IR.
 *
 * The one netlist simulator (DESIGN.md §15): the verification oracle,
 * the x-lint and Executable::evaluate all run it.  A value-change
 * event queue over one per-net fanout index re-evaluates only the
 * cone a change reaches, over the 0/1/X/Z algebra of logic.h.  Flops
 * are X-initialized — uninitialized state is visible as X at the
 * outputs instead of silently reading as 0 — and every value change
 * can be captured into a VCD-style trace (vcd.h).
 *
 * Determinism contract: combinational gates are ranked topologically
 * at construction (inputs and flop outputs are sources; gates on or
 * behind a combinational cycle share one last rank).  A settle drains
 * pending gates rank by rank, so each acyclic gate is evaluated at
 * most once per eval(); the cyclic last rank then runs in delta waves
 * of ascending gate index.  Identical stimulus yields an identical
 * event count, trace, and final state on every run.
 */

#ifndef QAC_SIM_EVENT_SIM_H
#define QAC_SIM_EVENT_SIM_H

#include <cstdint>
#include <string>
#include <vector>

#include "qac/netlist/netlist.h"
#include "qac/sim/logic.h"

namespace qac::sim {

/** One recorded value change (for VCD capture). */
struct Change
{
    uint64_t time;       ///< simulation timestamp (see now())
    netlist::NetId net;
    Logic value;
};

/** Event-driven 4-state simulator over one Netlist. */
class EventSimulator
{
  public:
    explicit EventSimulator(const netlist::Netlist &nl);

    const netlist::Netlist &netlist() const { return nl_; }

    /** True when no combinational gate sits on or behind a cycle. */
    bool acyclic() const { return cyclic_ == 0; }

    /** Set an input port from the low bits of @p value (all known). */
    void setInput(const std::string &port, uint64_t value);

    /** Drive every bit of an input port to one value. */
    void setInputAll(const std::string &port, Logic v);

    /**
     * Propagate pending changes through combinational logic to a
     * fixpoint (flop state unchanged).  Advances now() by one.
     * Fatal when the netlist oscillates (combinational cycle).
     */
    void eval();

    /** Latch every flop (capture D into state), then eval(). */
    void step();

    /** Force all flop state to @p v (default known 0), then eval(). */
    void reset(Logic v = Logic::L0);

    /** Current value of one net. */
    Logic value(netlist::NetId id) const { return values_[id]; }

    /** Two-valued net read; fatal when the net is X/Z. */
    bool netValue(netlist::NetId id) const;

    /**
     * Read an output (or any) port as an integer (width <= 64).
     * Fatal when any bit is X/Z — unknown values must never silently
     * decay to 0.
     */
    uint64_t output(const std::string &port) const;

    /** output() bit by bit, any width (bits[0] = LSB). */
    std::vector<bool> outputBits(const std::string &port) const;

    /** True when every bit of @p port is 0/1. */
    bool portKnown(const std::string &port) const;

    // ---- trace capture ----

    /** Start recording value changes (records current state first). */
    void enableTrace();
    const std::vector<Change> &trace() const { return trace_; }

    /**
     * Simulation timestamp: starts at 0, +1 per eval()/step()/reset().
     * Input changes are stamped at the current time; the propagation
     * they trigger carries the following eval()'s timestamp.
     */
    uint64_t now() const { return time_; }

    // ---- instrumentation ----

    /** Gate evaluations performed so far. */
    uint64_t eventsProcessed() const { return events_; }
    /** Net value changes applied so far. */
    uint64_t changesApplied() const { return changes_; }

  private:
    const netlist::Netlist &nl_;
    std::vector<Logic> values_;           ///< per-net current value
    std::vector<std::vector<uint32_t>> fanout_; ///< net -> comb. gates
    std::vector<uint32_t> rank_;          ///< per-gate topological rank
    std::vector<std::vector<uint32_t>> pending_; ///< per-rank gates
    std::vector<uint8_t> in_pending_;     ///< dedup bitmap for pending_
    std::vector<uint32_t> wave_;          ///< cyclic-rank delta scratch
    std::vector<uint32_t> flops_;         ///< sequential gate indices
    std::vector<Logic> latched_;          ///< step() scratch, per flop
    size_t cyclic_ = 0;                   ///< gates in the last rank
    std::vector<Change> trace_;
    bool tracing_ = false;
    uint64_t time_ = 0;
    uint64_t events_ = 0;
    uint64_t changes_ = 0;

    void rankGates();
    /** Write @p v to @p net; schedules fanout on change. */
    void setNet(netlist::NetId net, Logic v);
    void schedule(uint32_t gate);
    void evaluate(uint32_t gate);
    void settle(); ///< drain pending_ to a fixpoint
    bool knownBit(const netlist::Port &p, size_t i) const;
    const netlist::Port &inPort(const std::string &name) const;
    const netlist::Port &anyPort(const std::string &name) const;
};

} // namespace qac::sim

#endif // QAC_SIM_EVENT_SIM_H
