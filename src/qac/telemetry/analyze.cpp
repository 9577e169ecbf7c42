#include "qac/telemetry/analyze.h"

#include <cmath>

#include "qac/stats/registry.h"
#include "qac/util/json.h"

namespace qac::telemetry {

// Uses only SampleSet's inline accessors (samples(), totalReads()):
// the telemetry library sits *below* qac_anneal in the link order so
// the samplers can feed it, which rules out calling into sampleset.cpp.

Analysis
analyze(const anneal::SampleSet &set, const AnalyzeOptions &opts)
{
    Analysis a;
    a.tts_target = opts.tts_target;
    a.total_reads = set.totalReads();
    if (set.empty() || a.total_reads == 0)
        return a;

    double best = set.samples().front().energy;
    for (const auto &s : set.samples())
        best = std::min(best, s.energy);
    a.best_energy = best;
    a.ground_known = std::isfinite(opts.ground_energy);
    a.ground_energy = a.ground_known ? opts.ground_energy : best;

    uint64_t hits = 0;
    double residual_sum = 0.0;
    for (const auto &s : set.samples()) {
        // A sampler can undercut a supplied (approximate) ground
        // estimate; clamp so residuals stay non-negative and such
        // reads count as success.
        double residual = std::max(0.0, s.energy - a.ground_energy);
        if (residual <= opts.energy_tol) {
            hits += s.num_occurrences;
            residual = 0.0;
        }
        residual_sum += residual * s.num_occurrences;
        a.residual_max = std::max(a.residual_max, residual);
    }
    const double reads = static_cast<double>(a.total_reads);
    a.success_probability = static_cast<double>(hits) / reads;
    a.residual_mean = residual_sum / reads;

    const double p = a.success_probability;
    if (p <= 0.0)
        a.tts_reads = std::numeric_limits<double>::infinity();
    else if (p >= 1.0)
        a.tts_reads = 1.0;
    else
        a.tts_reads = std::log(1.0 - opts.tts_target) /
                      std::log(1.0 - p);
    a.tts_sweeps =
        a.tts_reads * static_cast<double>(opts.sweeps_per_read);
    if (opts.elapsed_ns > 0)
        a.tts_ns = a.tts_reads *
                   (static_cast<double>(opts.elapsed_ns) / reads);
    return a;
}

std::string
analysisJson(const std::string &solver, const Analysis &a)
{
    using util::json::appendDouble;
    using util::json::appendString;
    using util::json::appendU64;

    std::string out = "{\"kind\":\"analysis\",\"solver\":";
    appendString(out, solver);
    out += ",\"reads\":";
    appendU64(out, a.total_reads);
    out += ",\"best_energy\":";
    appendDouble(out, a.best_energy);
    out += ",\"ground_energy\":";
    appendDouble(out, a.ground_energy);
    out += ",\"ground_known\":";
    out += a.ground_known ? "true" : "false";
    out += ",\"success_probability\":";
    appendDouble(out, a.success_probability);
    out += ",\"residual_mean\":";
    appendDouble(out, a.residual_mean);
    out += ",\"residual_max\":";
    appendDouble(out, a.residual_max);
    out += ",\"tts_target\":";
    appendDouble(out, a.tts_target);
    out += ",\"tts99_reads\":";
    appendDouble(out, a.tts_reads); // null when infinite (p == 0)
    out += ",\"tts99_sweeps\":";
    appendDouble(out, a.tts_sweeps);
    out += '}';
    return out;
}

void
recordAnalysisStats(const Analysis &a)
{
    if (!stats::Registry::global().enabled() || a.total_reads == 0)
        return;
    stats::record("anneal.analysis.success_probability",
                  a.success_probability);
    stats::record("anneal.analysis.residual_mean", a.residual_mean);
    stats::record("anneal.analysis.residual_max", a.residual_max);
    if (std::isfinite(a.tts_reads)) {
        stats::record("anneal.analysis.tts99_reads", a.tts_reads);
        if (a.tts_ns > 0)
            stats::record("anneal.analysis.tts99_ns", a.tts_ns);
    } else {
        // No read hit the target: count the miss rather than poison
        // the distributions with infinity.
        stats::count("anneal.analysis.tts99_unreached");
    }
}

} // namespace qac::telemetry
