#include "qac/stats/report.h"

#include <cstdio>
#include <fstream>

#include "qac/util/json.h"

namespace qac::stats {

static std::string
valueString(const Metric &m)
{
    char buf[160];
    switch (m.kind) {
      case MetricKind::Counter:
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(m.count));
        break;
      case MetricKind::Timer:
        std::snprintf(buf, sizeof buf, "%.3f ms (%llu call%s)",
                      static_cast<double>(m.total_ns) / 1e6,
                      static_cast<unsigned long long>(m.count),
                      m.count == 1 ? "" : "s");
        break;
      case MetricKind::Distribution:
        std::snprintf(buf, sizeof buf,
                      "n=%llu mean=%.3f min=%g max=%g sd=%.3f "
                      "p50=%g p99=%g",
                      static_cast<unsigned long long>(m.dist.count),
                      m.dist.mean, m.dist.min, m.dist.max,
                      m.dist.stddev, m.dist.p50, m.dist.p99);
        break;
    }
    return buf;
}

std::string
textReport(const std::vector<Metric> &metrics)
{
    std::string out;
    std::string section;
    char line[256];
    for (const auto &m : metrics) {
        size_t dot = m.path.find('.');
        std::string head =
            dot == std::string::npos ? m.path : m.path.substr(0, dot);
        std::string rest =
            dot == std::string::npos ? m.path : m.path.substr(dot + 1);
        if (head != section) {
            if (!out.empty())
                out += '\n';
            section = head;
            out += '[' + section + "]\n";
        }
        std::snprintf(line, sizeof line, "  %-40s %s\n", rest.c_str(),
                      valueString(m).c_str());
        out += line;
    }
    return out;
}

std::string
jsonReport(const std::vector<Metric> &metrics,
           const std::string &manifest_json)
{
    std::string out = "{\"schema\":\"qac-stats-v1\",";
    if (!manifest_json.empty()) {
        out += "\"manifest\":";
        out += manifest_json;
        out += ',';
    }
    out += "\"metrics\":[";
    char buf[320];
    bool first = true;
    for (const auto &m : metrics) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"path\":\"";
        util::json::appendEscaped(out, m.path);
        out += "\",";
        switch (m.kind) {
          case MetricKind::Counter:
            std::snprintf(buf, sizeof buf, "\"kind\":\"counter\",\"value\":%llu",
                          static_cast<unsigned long long>(m.count));
            out += buf;
            break;
          case MetricKind::Timer:
            std::snprintf(buf, sizeof buf,
                          "\"kind\":\"timer\",\"calls\":%llu,\"total_ns\":%llu",
                          static_cast<unsigned long long>(m.count),
                          static_cast<unsigned long long>(m.total_ns));
            out += buf;
            break;
          case MetricKind::Distribution:
            std::snprintf(buf, sizeof buf,
                          "\"kind\":\"distribution\",\"count\":%llu,"
                          "\"sum\":%.17g,\"min\":%.17g,\"max\":%.17g,"
                          "\"mean\":%.17g,\"stddev\":%.17g,"
                          "\"p50\":%.17g,\"p99\":%.17g",
                          static_cast<unsigned long long>(m.dist.count),
                          m.dist.sum, m.dist.min, m.dist.max, m.dist.mean,
                          m.dist.stddev, m.dist.p50, m.dist.p99);
            out += buf;
            break;
        }
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
textReport()
{
    return textReport(Registry::global().snapshot());
}

std::string
jsonReport()
{
    return jsonReport(Registry::global().snapshot());
}

bool
writeJsonReport(const std::string &path)
{
    return writeJsonReport(path, "");
}

bool
writeJsonReport(const std::string &path,
                const std::string &manifest_json)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << jsonReport(Registry::global().snapshot(), manifest_json)
       << '\n';
    return static_cast<bool>(os);
}

} // namespace qac::stats
