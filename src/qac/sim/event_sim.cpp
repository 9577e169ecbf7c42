#include "qac/sim/event_sim.h"

#include <algorithm>

#include "qac/util/logging.h"

namespace qac::sim {

EventSimulator::EventSimulator(const netlist::Netlist &nl)
    : nl_(nl), values_(nl.numNets(), Logic::Z),
      fanout_(nl.numNets()), in_pending_(nl.numGates(), 0)
{
    values_[netlist::kConst0] = Logic::L0;
    values_[netlist::kConst1] = Logic::L1;
    // Input-port nets are externally driven: they start X (present
    // but unknown) rather than Z (undriven), so the lint can tell
    // "caller never set this" from "nothing drives this".
    for (const auto &p : nl.ports())
        if (p.dir == netlist::PortDir::Input)
            for (netlist::NetId n : p.bits)
                values_[n] = Logic::X;
    // Driven nets lose their Z default: flop outputs hold their X
    // power-up state, combinational outputs get evaluated at time 0.
    // Only combinational gates enter the fanout index; a flop samples
    // its D input on step(), never on a value change.
    const auto &gates = nl.gates();
    for (uint32_t gi = 0; gi < gates.size(); ++gi) {
        values_[gates[gi].output] = Logic::X;
        if (cells::gateInfo(gates[gi].type).sequential) {
            flops_.push_back(gi);
            continue;
        }
        for (netlist::NetId in : gates[gi].inputs)
            fanout_[in].push_back(gi);
    }
    latched_.resize(flops_.size());
    rankGates();
    for (uint32_t gi = 0; gi < gates.size(); ++gi)
        if (!cells::gateInfo(gates[gi].type).sequential)
            schedule(gi);
    settle();
}

void
EventSimulator::rankGates()
{
    // Kahn's algorithm over the combinational gates: a gate waits on
    // every input a combinational gate drives (inputs, constants and
    // flop outputs are sources), and its rank is its longest path
    // from a source.
    const auto &gates = nl_.gates();
    std::vector<uint32_t> waits(gates.size(), 0);
    std::vector<uint32_t> order;
    rank_.assign(gates.size(), 0);
    for (uint32_t gi = 0; gi < gates.size(); ++gi)
        if (!cells::gateInfo(gates[gi].type).sequential)
            for (uint32_t c : fanout_[gates[gi].output])
                ++waits[c];
    for (uint32_t gi = 0; gi < gates.size(); ++gi)
        if (!cells::gateInfo(gates[gi].type).sequential && waits[gi] == 0)
            order.push_back(gi);
    uint32_t ranks = 0;
    for (size_t head = 0; head < order.size(); ++head) {
        const uint32_t gi = order[head];
        const uint32_t next = rank_[gi] + 1;
        ranks = std::max(ranks, next);
        for (uint32_t c : fanout_[gates[gi].output]) {
            rank_[c] = std::max(rank_[c], next);
            if (--waits[c] == 0)
                order.push_back(c);
        }
    }
    // Gates on or behind a cycle never run out of waits; they share
    // one last rank, which settle() drains in delta waves.
    cyclic_ = gates.size() - flops_.size() - order.size();
    for (uint32_t gi = 0; gi < gates.size(); ++gi)
        if (waits[gi] != 0)
            rank_[gi] = ranks;
    pending_.resize(ranks + 1);
}

void
EventSimulator::schedule(uint32_t gate)
{
    if (in_pending_[gate])
        return;
    in_pending_[gate] = 1;
    pending_[rank_[gate]].push_back(gate);
}

void
EventSimulator::setNet(netlist::NetId net, Logic v)
{
    if (values_[net] == v)
        return;
    values_[net] = v;
    ++changes_;
    if (tracing_)
        trace_.push_back({time_, net, v});
    for (uint32_t gi : fanout_[net])
        schedule(gi);
}

void
EventSimulator::evaluate(uint32_t gate)
{
    const netlist::Gate &g = nl_.gates()[gate];
    Logic in[4]; // max cell arity (AOI4/OAI4)
    for (size_t k = 0; k < g.inputs.size(); ++k)
        in[k] = values_[g.inputs[k]];
    ++events_;
    setNet(g.output, evalGate4(g.type, in));
}

void
EventSimulator::settle()
{
    // Every consumer of an acyclic gate sits at a higher rank, so
    // draining the ranks in order evaluates each pending gate once,
    // after all of its inputs have settled.
    const size_t last = pending_.size() - 1;
    for (size_t r = 0; r < last; ++r) {
        for (uint32_t gi : pending_[r]) {
            in_pending_[gi] = 0;
            evaluate(gi);
        }
        pending_[r].clear();
    }
    // The cyclic last rank: a delta wave evaluates its pending gates
    // in ascending index; changes produced feed the next wave.
    // Anything still toggling after numGates + 1 waves oscillates.
    const size_t max_deltas = nl_.numGates() + 1;
    for (size_t delta = 0; !pending_[last].empty(); ++delta) {
        if (delta >= max_deltas)
            fatal("netlist '%s' does not settle (combinational "
                  "cycle?)", nl_.name().c_str());
        wave_.clear();
        std::swap(wave_, pending_[last]);
        std::sort(wave_.begin(), wave_.end());
        for (uint32_t gi : wave_)
            in_pending_[gi] = 0;
        for (uint32_t gi : wave_)
            evaluate(gi);
    }
}

void
EventSimulator::setInput(const std::string &name, uint64_t value)
{
    const netlist::Port &p = inPort(name);
    for (size_t i = 0; i < p.bits.size(); ++i)
        setNet(p.bits[i], fromBool((value >> i) & 1));
}

void
EventSimulator::setInputAll(const std::string &name, Logic v)
{
    const netlist::Port &p = inPort(name);
    for (netlist::NetId n : p.bits)
        setNet(n, v);
}

void
EventSimulator::eval()
{
    ++time_;
    settle();
}

void
EventSimulator::step()
{
    ++time_;
    const auto &gates = nl_.gates();
    // Sample every D first (nonblocking semantics), then publish.
    for (size_t f = 0; f < flops_.size(); ++f)
        latched_[f] = drive(values_[gates[flops_[f]].inputs[0]]);
    for (size_t f = 0; f < flops_.size(); ++f)
        setNet(gates[flops_[f]].output, latched_[f]);
    settle();
}

void
EventSimulator::reset(Logic v)
{
    ++time_;
    for (uint32_t gi : flops_)
        setNet(nl_.gates()[gi].output, v);
    settle();
}

bool
EventSimulator::netValue(netlist::NetId id) const
{
    Logic v = values_[id];
    if (!isKnown(v))
        fatal("net '%s' in '%s' is %c (unset input or uninitialized "
              "flop upstream)",
              nl_.netName(id).c_str(), nl_.name().c_str(), logicChar(v));
    return toBool(v);
}

bool
EventSimulator::knownBit(const netlist::Port &p, size_t i) const
{
    Logic b = values_[p.bits[i]];
    if (!isKnown(b))
        fatal("port '%s' bit %zu is %c (unset input or uninitialized "
              "flop upstream)",
              p.name.c_str(), i, logicChar(b));
    return toBool(b);
}

uint64_t
EventSimulator::output(const std::string &name) const
{
    const netlist::Port &p = anyPort(name);
    if (p.bits.size() > 64)
        fatal("port '%s' too wide for integer read", name.c_str());
    uint64_t v = 0;
    for (size_t i = 0; i < p.bits.size(); ++i)
        if (knownBit(p, i))
            v |= uint64_t{1} << i;
    return v;
}

std::vector<bool>
EventSimulator::outputBits(const std::string &name) const
{
    const netlist::Port &p = anyPort(name);
    std::vector<bool> bits(p.bits.size());
    for (size_t i = 0; i < p.bits.size(); ++i)
        bits[i] = knownBit(p, i);
    return bits;
}

bool
EventSimulator::portKnown(const std::string &name) const
{
    const netlist::Port &p = anyPort(name);
    for (netlist::NetId n : p.bits)
        if (!isKnown(values_[n]))
            return false;
    return true;
}

void
EventSimulator::enableTrace()
{
    if (tracing_)
        return;
    tracing_ = true;
    // Snapshot the current state so a VCD dump starts fully defined.
    for (netlist::NetId n = 0; n < values_.size(); ++n)
        trace_.push_back({time_, n, values_[n]});
}

const netlist::Port &
EventSimulator::inPort(const std::string &name) const
{
    const netlist::Port &p = anyPort(name);
    if (p.dir != netlist::PortDir::Input)
        fatal("port '%s' is not an input", name.c_str());
    return p;
}

const netlist::Port &
EventSimulator::anyPort(const std::string &name) const
{
    const netlist::Port *p = nl_.findPort(name);
    if (!p)
        fatal("no port named '%s'", name.c_str());
    return *p;
}

} // namespace qac::sim
