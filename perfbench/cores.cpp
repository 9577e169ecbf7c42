#include "cores.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "layers.h"

namespace perfbench {
namespace {

double
threadCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

bool
pin(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
}

/** About 1 ms of allocation-heavy, pointer-chasing work: a symbol
 *  table in an ordered map, the shape of the frontends' ms-scale
 *  work, which a disturbed core slows the most. */
uint64_t
probe()
{
    std::map<std::string, uint64_t> table;
    uint64_t x = 0x9e3779b97f4a7c15ULL, sum = 0;
    char buf[48];
    for (int i = 0; i < 1500; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::snprintf(buf, sizeof buf, "n%llu_%d",
                      static_cast<unsigned long long>(x % 4096), i);
        table[buf] = x;
    }
    for (const auto &[k, v] : table)
        sum += v ^ k.size();
    return sum;
}

} // namespace

CorePicker::CorePicker(bool enabled)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (!enabled || sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus_.push_back(c);
    if (cpus_.size() < 2)
        cpus_.clear();
}

void
CorePicker::maybe()
{
    if (cpus_.empty() || (last_ >= 0 && now() - last_ < 1.0))
        return;
    int best = -1;
    double best_s = 0;
    for (int c : cpus_) {
        if (!pin(c))
            continue;
        // Best of three, so one interrupt does not decide.
        double s = 1e9;
        for (int r = 0; r < 3; ++r) {
            const double t0 = threadCpu();
            sink_ += probe();
            s = std::min(s, threadCpu() - t0);
        }
        if (best < 0 || s < best_s) {
            best = c;
            best_s = s;
        }
    }
    if (best >= 0)
        pin(best);
    ++picks_;
    last_ = now();
}

void
CorePicker::release()
{
    if (cpus_.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus_)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
    last_ = -1;
}

} // namespace perfbench
