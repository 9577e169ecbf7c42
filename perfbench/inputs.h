/**
 * @file
 * Benchmark inputs, generated from the workload seed: the paper's
 * designs (typed in here, so the benchmark does not depend on the
 * examples directory), parameterized multipliers and ALUs, and
 * planted 3-SAT instances whose hidden assignment the benchmark keeps
 * for its own answer checks.
 */

#ifndef QAC_PERFBENCH_INPUTS_H
#define QAC_PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One Verilog design: source text plus its top module. */
struct Design
{
    std::string name;
    std::string top;
    std::string source;
};

/** The paper's 2x2-bit multiplier (examples/mult4.v). */
Design mult4();
/** Y = sel ? A - B : A + B over 3-bit operands (examples/mux_add_sub.v). */
Design muxAddSub();
/** Listing 7: the 4-coloring verifier for Australia (Figure 5). */
Design mapColoring();
/** C = A * B with N-bit operands. */
Design multiplier(unsigned bits);
/** y = op==0 ? a+b : op==1 ? a-b : op==2 ? a&b : a^b, W-bit. */
Design alu(unsigned bits);

/** Figure 5's region names and adjacency, as the benchmark knows it. */
const std::vector<std::string> &mapRegions();
const std::vector<std::pair<std::string, std::string>> &mapBorders();

/** A planted 3-SAT instance (DIMACS literals, 1-based). */
struct Cnf
{
    uint32_t num_vars = 0;
    std::vector<std::vector<int32_t>> clauses;
    std::vector<bool> planted; ///< [v-1] satisfies every clause

    std::string dimacs() const;
};

/** Uniform random 3-SAT clauses, each repaired to hold under a
 *  random hidden assignment (guaranteed satisfiable). */
Cnf plantedCnf(uint64_t seed, uint32_t num_vars, uint32_t num_clauses);

/** splitmix64: the benchmark's seed-derivation function. */
uint64_t mix(uint64_t x);

} // namespace perfbench

#endif // QAC_PERFBENCH_INPUTS_H
