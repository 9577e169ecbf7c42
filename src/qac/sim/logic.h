/**
 * @file
 * Four-state logic algebra (0/1/X/Z) for the simulation subsystem.
 *
 * Verilog-style pessimistic semantics: X is "unknown", Z is
 * "undriven"; a gate input consumes Z as X.  Controlling values still
 * dominate (AND with a 0 input is 0 no matter what the other input
 * is), but anything a controlling value cannot decide is X — in
 * particular a MUX whose select is X yields X even when both data
 * inputs agree.  This pessimism is what makes the X-propagation lint
 * sound: a net the lint reports as known really is independent of
 * every unknown in the design.
 *
 * The one netlist simulator (event_sim.h) evaluates every gate
 * through evalGate4, so its X propagation, the x-lint, and the
 * "unset input" errors of netlist::Simulator all share these tables.
 */

#ifndef QAC_SIM_LOGIC_H
#define QAC_SIM_LOGIC_H

#include <cstdint>

#include "qac/cells/gate.h"
#include "qac/util/logging.h"

namespace qac::sim {

/** One 4-state value. */
enum class Logic : uint8_t {
    L0 = 0, ///< known false
    L1 = 1, ///< known true
    X = 2,  ///< unknown
    Z = 3,  ///< undriven (reads as X at any gate input)
};

/** True for 0/1, false for X/Z. */
inline bool
isKnown(Logic v)
{
    return v == Logic::L0 || v == Logic::L1;
}

inline Logic
fromBool(bool b)
{
    return b ? Logic::L1 : Logic::L0;
}

/** Known-value read; call only when isKnown(v). */
inline bool
toBool(Logic v)
{
    return v == Logic::L1;
}

/** VCD-style character: '0', '1', 'x', 'z'. */
inline char
logicChar(Logic v)
{
    switch (v) {
      case Logic::L0: return '0';
      case Logic::L1: return '1';
      case Logic::X: return 'x';
      case Logic::Z: return 'z';
    }
    return 'x';
}

/** A gate input consumes an undriven net as unknown. */
inline Logic
drive(Logic v)
{
    return v == Logic::Z ? Logic::X : v;
}

inline Logic
not4(Logic a)
{
    a = drive(a);
    if (!isKnown(a))
        return Logic::X;
    return fromBool(!toBool(a));
}

inline Logic
and4(Logic a, Logic b)
{
    a = drive(a);
    b = drive(b);
    if (a == Logic::L0 || b == Logic::L0)
        return Logic::L0; // controlling value
    if (a == Logic::L1 && b == Logic::L1)
        return Logic::L1;
    return Logic::X;
}

inline Logic
or4(Logic a, Logic b)
{
    a = drive(a);
    b = drive(b);
    if (a == Logic::L1 || b == Logic::L1)
        return Logic::L1; // controlling value
    if (a == Logic::L0 && b == Logic::L0)
        return Logic::L0;
    return Logic::X;
}

inline Logic
xor4(Logic a, Logic b)
{
    a = drive(a);
    b = drive(b);
    if (!isKnown(a) || !isKnown(b))
        return Logic::X; // no controlling value exists for XOR
    return fromBool(toBool(a) != toBool(b));
}

/** Y = S ? B : A; an unknown select is pessimistically X. */
inline Logic
mux4(Logic a, Logic b, Logic s)
{
    s = drive(s);
    if (!isKnown(s))
        return Logic::X;
    return drive(toBool(s) ? b : a);
}

/**
 * 4-state combinational evaluation of one cell.  @p in points at
 * gateInfo(type).inputs.size() values in argument order.  Panics for
 * sequential gates (flop state belongs to the simulator, not the
 * cell).
 */
inline Logic
evalGate4(cells::GateType type, const Logic *in)
{
    using cells::GateType;
    switch (type) {
      case GateType::BUF:
        return drive(in[0]);
      case GateType::NOT:
        return not4(in[0]);
      case GateType::AND:
        return and4(in[0], in[1]);
      case GateType::OR:
        return or4(in[0], in[1]);
      case GateType::NAND:
        return not4(and4(in[0], in[1]));
      case GateType::NOR:
        return not4(or4(in[0], in[1]));
      case GateType::XOR:
        return xor4(in[0], in[1]);
      case GateType::XNOR:
        return not4(xor4(in[0], in[1]));
      case GateType::MUX:
        // inputs (A, B, S): Y = S ? B : A
        return mux4(in[0], in[1], in[2]);
      case GateType::AOI3:
        return not4(or4(and4(in[0], in[1]), in[2]));
      case GateType::OAI3:
        return not4(and4(or4(in[0], in[1]), in[2]));
      case GateType::AOI4:
        return not4(or4(and4(in[0], in[1]), and4(in[2], in[3])));
      case GateType::OAI4:
        return not4(and4(or4(in[0], in[1]), or4(in[2], in[3])));
      case GateType::DFF_P:
      case GateType::DFF_N:
        panic("evalGate4 called on sequential gate %s",
              cells::gateInfo(type).name);
    }
    panic("evalGate4: bad gate type");
}

} // namespace qac::sim

#endif // QAC_SIM_LOGIC_H
