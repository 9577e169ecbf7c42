/**
 * @file
 * Shared text/JSON writers for stats-registry snapshots.
 *
 * Both CLIs, the benchmarks, and the tests consume the same JSON schema:
 *
 *   {"schema":"qac-stats-v1","metrics":[
 *     {"path":"compile.gates","kind":"counter","value":42},
 *     {"path":"compile.embed","kind":"timer","calls":1,"total_ns":12345},
 *     {"path":"embed.minorminer.chain_len","kind":"distribution",
 *      "count":9,"sum":...,"min":...,"max":...,"mean":...,"stddev":...}]}
 *
 * The text report groups metrics by the first dotted-path segment:
 *
 *   [compile]
 *     gates                    42
 *     synth                    1.234 ms (1 call)
 */

#ifndef QAC_STATS_REPORT_H
#define QAC_STATS_REPORT_H

#include <string>
#include <vector>

#include "qac/stats/registry.h"

namespace qac::stats {

/** Human-readable report over @p metrics (sorted by path). */
std::string textReport(const std::vector<Metric> &metrics);

/**
 * qac-stats-v1 JSON over @p metrics.  @p manifest_json, when
 * non-empty, must be a complete JSON object; it is embedded verbatim
 * as a top-level "manifest" key (run provenance — see
 * telemetry/manifest.h).
 */
std::string jsonReport(const std::vector<Metric> &metrics,
                       const std::string &manifest_json = "");

/** textReport(Registry::global().snapshot()). */
std::string textReport();

/** jsonReport(Registry::global().snapshot()). */
std::string jsonReport();

/** Write jsonReport() to @p path; returns false on I/O failure. */
bool writeJsonReport(const std::string &path);

/** As above, with a "manifest" provenance block. */
bool writeJsonReport(const std::string &path,
                     const std::string &manifest_json);

} // namespace qac::stats

#endif // QAC_STATS_REPORT_H
