#include "checks.h"

#include <sstream>

#include "qac/qmasm/edif2qmasm.h"

namespace perfbench {

bool
embeddingValid(const std::vector<std::vector<uint32_t>> &chains,
               const qac::ising::IsingModel &logical,
               const qac::chimera::HardwareGraph &hw, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (chains.size() != logical.numVars())
        return fail("chain count differs from the logical variable count");
    std::vector<int64_t> owner(hw.numNodes(), -1);
    for (size_t v = 0; v < chains.size(); ++v) {
        if (chains[v].empty())
            return fail("empty chain for variable " + std::to_string(v));
        for (uint32_t q : chains[v]) {
            if (q >= hw.numNodes() || !hw.isActive(q))
                return fail("chain on an absent qubit");
            if (owner[q] != -1)
                return fail("qubit " + std::to_string(q) +
                            " shared by two chains");
            owner[q] = static_cast<int64_t>(v);
        }
    }
    for (size_t v = 0; v < chains.size(); ++v) {
        // Connectivity: flood fill inside the chain.
        std::vector<uint32_t> stack = {chains[v][0]};
        std::vector<uint32_t> seen = {chains[v][0]};
        while (!stack.empty()) {
            uint32_t q = stack.back();
            stack.pop_back();
            for (uint32_t n : hw.neighbors(q)) {
                if (owner[n] != static_cast<int64_t>(v))
                    continue;
                bool known = false;
                for (uint32_t s : seen)
                    known = known || s == n;
                if (!known) {
                    seen.push_back(n);
                    stack.push_back(n);
                }
            }
        }
        if (seen.size() != chains[v].size())
            return fail("chain of variable " + std::to_string(v) +
                        " is disconnected");
    }
    for (const auto &t : logical.quadraticTerms()) {
        bool coupled = false;
        for (uint32_t q : chains[t.i]) {
            for (uint32_t n : hw.neighbors(q))
                coupled = coupled || owner[n] == static_cast<int64_t>(t.j);
            if (coupled)
                break;
        }
        if (!coupled)
            return fail("logical edge " + std::to_string(t.i) + "-" +
                        std::to_string(t.j) + " has no coupler");
    }
    return true;
}

std::optional<uint64_t>
portValue(const qac::core::CompileResult &compiled,
          const std::map<std::string, bool> &values,
          const std::string &port)
{
    const qac::netlist::Port *p = compiled.netlist.findPort(port);
    if (!p)
        return std::nullopt;
    uint64_t value = 0;
    for (size_t i = 0; i < p->bits.size(); ++i) {
        auto it = values.find(qac::qmasm::portBitSymbol(*p, i));
        if (it == values.end())
            return std::nullopt;
        if (it->second)
            value |= uint64_t{1} << i;
    }
    return value;
}

std::optional<std::vector<bool>>
parseModelLine(const std::string &line, uint32_t num_vars)
{
    std::istringstream in(line);
    std::string tag;
    if (!(in >> tag) || tag != "v")
        return std::nullopt;
    std::vector<int> seen(num_vars, 0);
    std::vector<bool> assignment(num_vars, false);
    long lit = 0;
    while (in >> lit) {
        if (lit == 0)
            break;
        const uint64_t v = static_cast<uint64_t>(lit < 0 ? -lit : lit);
        if (v > num_vars || seen[v - 1]++)
            return std::nullopt;
        assignment[v - 1] = lit > 0;
    }
    if (lit != 0)
        return std::nullopt;
    for (int s : seen)
        if (!s)
            return std::nullopt;
    return assignment;
}

bool
clausesHold(const Cnf &cnf, const std::vector<bool> &assignment)
{
    for (const auto &clause : cnf.clauses) {
        bool sat = false;
        for (int32_t lit : clause) {
            const bool value = assignment[static_cast<size_t>(
                (lit < 0 ? -lit : lit) - 1)];
            sat = sat || (lit > 0 ? value : !value);
        }
        if (!sat)
            return false;
    }
    return true;
}

bool
coloringValid(const std::map<std::string, uint64_t> &colors)
{
    for (const auto &[a, b] : mapBorders()) {
        auto ia = colors.find(a);
        auto ib = colors.find(b);
        if (ia == colors.end() || ib == colors.end() ||
            ia->second == ib->second)
            return false;
    }
    return true;
}

uint64_t
aluReference(unsigned bits, uint64_t a, uint64_t b, uint64_t op)
{
    const uint64_t mask =
        bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    switch (op & 3) {
      case 0: return (a + b) & mask;
      case 1: return (a - b) & mask;
      case 2: return a & b & mask;
      default: return (a ^ b) & mask;
    }
}

} // namespace perfbench
