/**
 * @file
 * Chain-aware simulated annealing for minor-embedded models.
 *
 * On an embedded Hamiltonian, moving one *logical* variable requires
 * flipping an entire ferromagnetic chain coherently — a barrier of
 * O(chain length x chain strength) that defeats single-spin-flip
 * Metropolis at low temperature (a quantum annealer crosses it by
 * tunneling; Section 2).  This sampler alternates full-chain composite
 * moves with single-qubit moves, both accepted on the *physical*
 * model's exact energy change, so chain-broken states remain reachable
 * and correctly weighted.  Reads run 64 to a packed pass when
 * CommonParams::packed selects it (DESIGN.md §13), with results
 * bit-identical to the per-read loop.
 */

#ifndef QAC_ANNEAL_CHAINFLIP_H
#define QAC_ANNEAL_CHAINFLIP_H

#include <vector>

#include "qac/anneal/sampler.h"
#include "qac/anneal/sampleset.h"
#include "qac/ising/model.h"

namespace qac::anneal {

class ChainFlipAnnealer : public Sampler
{
  public:
    struct Params : CommonParams
    {
        uint32_t sweeps = 256;
        double beta_initial = 0.0; ///< 0 = auto
        double beta_final = 0.0;   ///< 0 = auto
        bool greedy_polish = true;
    };

    /**
     * @param chains  groups of variable indices flipped together
     *                (typically EmbeddedModel::dense_chains); sample()
     *                throws FatalError if a member is not a variable
     *                of the model or a qubit is listed twice
     */
    ChainFlipAnnealer(Params params,
                      std::vector<std::vector<uint32_t>> chains)
        : params_(params), chains_(std::move(chains))
    {}

    SampleSet sample(const ising::IsingModel &model) const override;

  private:
    Params params_;
    std::vector<std::vector<uint32_t>> chains_;
};

} // namespace qac::anneal

#endif // QAC_ANNEAL_CHAINFLIP_H
