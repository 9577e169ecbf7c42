#include "qac/telemetry/manifest.h"

#include <thread>

#include "qac/util/json.h"
#include "qac/util/version.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

namespace qac::telemetry {

Manifest
Manifest::make(const std::string &tool)
{
    Manifest m;
    m.tool = tool;
    m.version = util::versionString();
    m.git_describe = util::gitDescribe();
    m.host_cpus = std::thread::hardware_concurrency();
#if defined(__unix__) || defined(__APPLE__)
    struct utsname u;
    if (uname(&u) == 0) {
        m.os = std::string(u.sysname) + " " + u.release;
        m.arch = u.machine;
    }
#endif
    if (m.os.empty())
        m.os = "unknown";
    if (m.arch.empty())
        m.arch = "unknown";
    return m;
}

void
Manifest::param(const std::string &key, const std::string &value)
{
    params[key] = value;
}

void
Manifest::param(const std::string &key, uint64_t value)
{
    std::string v;
    util::json::appendU64(v, value);
    params[key] = v;
}

void
Manifest::param(const std::string &key, double value)
{
    std::string v;
    util::json::appendDouble(v, value);
    params[key] = v;
}

std::string
Manifest::block(bool include_threads) const
{
    using util::json::appendString;
    using util::json::appendU64;

    std::string out = "{\"tool\":";
    appendString(out, tool);
    out += ",\"version\":";
    appendString(out, version);
    out += ",\"git\":";
    appendString(out, git_describe);
    out += ",\"input\":";
    appendString(out, input);
    out += ",\"qo_digest\":";
    appendString(out, qo_digest);
    out += ",\"seed\":";
    appendU64(out, seed);
    if (include_threads) {
        out += ",\"threads\":";
        appendU64(out, threads);
    } else {
        out += ",\"thread_invariant\":true";
    }
    out += ",\"params\":{";
    bool first = true;
    for (const auto &[k, v] : params) { // std::map: sorted, canonical
        if (!first)
            out += ',';
        first = false;
        appendString(out, k);
        out += ':';
        appendString(out, v);
    }
    out += "},\"host\":{\"os\":";
    appendString(out, os);
    out += ",\"arch\":";
    appendString(out, arch);
    out += ",\"cpus\":";
    appendU64(out, host_cpus);
    out += "}}";
    return out;
}

std::string
Manifest::record(bool include_threads) const
{
    std::string body = block(include_threads);
    // Splice the schema/kind header into the object.
    std::string out =
        "{\"schema\":\"qac-telemetry-v1\",\"kind\":\"manifest\",";
    out += body.substr(1);
    return out;
}

} // namespace qac::telemetry
