/**
 * @file
 * Core choice for a one-thread run on a shared host.
 *
 * On a shared host some CPUs of the machine run the same code up to
 * 70% slower than others for tens of seconds at a time (the host gives
 * their sibling hardware threads to other tenants), and which ones
 * changes as the run goes on.  A run that stays where the scheduler
 * put it measures that draw.  CorePicker times a short probe on every
 * CPU the process may use, at most once a second, and pins the thread
 * to the fastest, so ops run on the least disturbed core there is.
 */

#ifndef QAC_PERFBENCH_CORES_H
#define QAC_PERFBENCH_CORES_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class CorePicker
{
  public:
    /** @p enabled false: never pin (runs with more than one thread). */
    explicit CorePicker(bool enabled);

    /** Re-pick the core if a second has passed since the last pick. */
    void maybe();

    /** Let the thread (and threads it starts) use every CPU again,
     *  for work that runs on several threads; the next maybe() picks
     *  a core afresh. */
    void release();

    /** Picks made so far. */
    std::size_t picks() const { return picks_; }

  private:
    std::vector<int> cpus_;
    double last_ = -1;
    std::size_t picks_ = 0;
    uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // QAC_PERFBENCH_CORES_H
