/**
 * @file
 * Forward simulation of an acyclic netlist.
 *
 * Used three ways: (1) as the reference semantics the bit-blaster is
 * tested against, (2) to verify annealer outputs by running NP-verifier
 * programs forward on classical hardware (Section 5.2: "we can easily
 * check a result by running the code forward"), and (3) inside tests to
 * cross-check Ising ground states against circuit behaviour.
 *
 * This is the one simulator, sim::EventSimulator, with the single
 * extra requirement that no combinational gate sits on a cycle.
 * Values are four-state: input ports and flip-flops power up X, so
 * reading an output that depends on an input the caller never set —
 * or on an un-reset flop — is a hard error instead of a silent 0.
 * Link qac_sim to use it.
 */

#ifndef QAC_NETLIST_SIMULATE_H
#define QAC_NETLIST_SIMULATE_H

#include "qac/netlist/netlist.h"
#include "qac/sim/event_sim.h"
#include "qac/util/logging.h"

namespace qac::netlist {

/** The event simulator over a netlist without combinational cycles. */
class Simulator : public sim::EventSimulator
{
  public:
    explicit Simulator(const Netlist &nl) : sim::EventSimulator(nl)
    {
        if (!acyclic())
            fatal("netlist '%s' has a combinational cycle",
                  nl.name().c_str());
    }
};

} // namespace qac::netlist

#endif // QAC_NETLIST_SIMULATE_H
