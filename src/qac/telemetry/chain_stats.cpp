#include "qac/telemetry/chain_stats.h"

#include <algorithm>

#include "qac/stats/registry.h"
#include "qac/util/json.h"

namespace qac::telemetry {

ChainReport
buildChainReport(const std::vector<std::vector<uint32_t>> &chains,
                 const std::vector<uint64_t> &weighted_breaks,
                 uint64_t reads, size_t top_n)
{
    ChainReport r;
    r.num_chains = chains.size();
    r.reads = reads;
    if (chains.empty())
        return r;

    size_t len_sum = 0;
    for (const auto &c : chains) {
        len_sum += c.size();
        r.max_len = std::max(r.max_len, c.size());
    }
    r.mean_len =
        static_cast<double>(len_sum) / static_cast<double>(chains.size());

    std::vector<uint32_t> broken;
    for (uint32_t c = 0; c < weighted_breaks.size(); ++c) {
        r.broken_chain_reads += weighted_breaks[c];
        if (weighted_breaks[c] > 0)
            broken.push_back(c);
    }
    if (reads > 0)
        r.break_rate = static_cast<double>(r.broken_chain_reads) /
                       (static_cast<double>(reads) *
                        static_cast<double>(chains.size()));

    std::sort(broken.begin(), broken.end(),
              [&](uint32_t a, uint32_t b) {
                  if (weighted_breaks[a] != weighted_breaks[b])
                      return weighted_breaks[a] > weighted_breaks[b];
                  return a < b;
              });
    if (broken.size() > top_n)
        broken.resize(top_n);
    for (uint32_t c : broken) {
        ChainReport::Offender o;
        o.chain = c;
        o.length = static_cast<uint32_t>(chains[c].size());
        o.breaks = weighted_breaks[c];
        o.rate = reads > 0 ? static_cast<double>(o.breaks) /
                                 static_cast<double>(reads)
                           : 0.0;
        r.top.push_back(o);
    }
    return r;
}

std::string
chainReportJson(const std::string &solver, const ChainReport &r)
{
    using util::json::appendDouble;
    using util::json::appendString;
    using util::json::appendU64;

    std::string out = "{\"kind\":\"chains\",\"solver\":";
    appendString(out, solver);
    out += ",\"reads\":";
    appendU64(out, r.reads);
    out += ",\"chains\":";
    appendU64(out, r.num_chains);
    out += ",\"broken_chain_reads\":";
    appendU64(out, r.broken_chain_reads);
    out += ",\"break_rate\":";
    appendDouble(out, r.break_rate);
    out += ",\"max_len\":";
    appendU64(out, r.max_len);
    out += ",\"mean_len\":";
    appendDouble(out, r.mean_len);
    out += ",\"repaired_samples\":";
    appendU64(out, r.repaired_samples);
    out += ",\"repair_gain\":";
    appendDouble(out, r.repair_gain);
    out += ",\"top\":[";
    bool first = true;
    for (const auto &o : r.top) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"chain\":";
        appendU64(out, o.chain);
        out += ",\"len\":";
        appendU64(out, o.length);
        out += ",\"breaks\":";
        appendU64(out, o.breaks);
        out += ",\"rate\":";
        appendDouble(out, o.rate);
        out += '}';
    }
    out += "]}";
    return out;
}

void
recordChainStats(const ChainReport &r)
{
    if (!stats::Registry::global().enabled() || r.num_chains == 0)
        return;
    stats::gauge("anneal.chains.count", r.num_chains);
    stats::gauge("anneal.chains.max_len", r.max_len);
    stats::record("anneal.chains.mean_len", r.mean_len);
    if (r.broken_chain_reads > 0)
        stats::count("anneal.chains.breaks", r.broken_chain_reads);
    stats::record("anneal.chains.break_rate", r.break_rate);
    if (r.repaired_samples > 0) {
        stats::count("anneal.chains.repaired_samples",
                     r.repaired_samples);
        stats::record("anneal.chains.repair_gain", r.repair_gain);
    }
}

} // namespace qac::telemetry
