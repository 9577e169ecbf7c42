/**
 * @file
 * The benchmark's own answer checks.  None of them calls back into
 * the code under test for the verdict: embeddings are re-verified
 * against the hardware graph here, arithmetic is recomputed in C++,
 * colorings are checked against the benchmark's copy of Figure 5 and
 * CNF models against the benchmark's clause list.
 */

#ifndef QAC_PERFBENCH_CHECKS_H
#define QAC_PERFBENCH_CHECKS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "qac/chimera/hardware_graph.h"
#include "qac/core/compiler.h"

namespace perfbench {

/**
 * Every chain non-empty, on active qubits, connected and disjoint
 * from the others; every logical edge realized by a hardware coupler
 * between its two chains.  @p why names the first violation.
 */
bool embeddingValid(const std::vector<std::vector<uint32_t>> &chains,
                    const qac::ising::IsingModel &logical,
                    const qac::chimera::HardwareGraph &hw,
                    std::string *why);

/** Read an integer port (LSB = bit 0) out of decoded symbol values. */
std::optional<uint64_t>
portValue(const qac::core::CompileResult &compiled,
          const std::map<std::string, bool> &values,
          const std::string &port);

/** Parse a DIMACS "v ... 0" model line over @p num_vars variables. */
std::optional<std::vector<bool>> parseModelLine(const std::string &line,
                                                uint32_t num_vars);

/** Every clause of @p cnf holds under @p assignment ([v-1]). */
bool clausesHold(const Cnf &cnf, const std::vector<bool> &assignment);

/** Every bordering pair of regions has different colors. */
bool coloringValid(const std::map<std::string, uint64_t> &colors);

/** y of the benchmark's ALU (inputs.h) for W-bit operands. */
uint64_t aluReference(unsigned bits, uint64_t a, uint64_t b, uint64_t op);

} // namespace perfbench

#endif // QAC_PERFBENCH_CHECKS_H
