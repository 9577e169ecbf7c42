/**
 * @file
 * Tiny JSON-emission helpers shared by the stats reports, the trace
 * export and the telemetry serializers.  Strings escape `"`, `\`,
 * newline and tab by name and every other control byte as \u00xx.
 * Doubles render with %.17g (round-trip exact) so the JSONL byte
 * identity across thread counts extends to every numeric field;
 * non-finite values render as null (JSON has no Inf/NaN).
 */

#ifndef QAC_UTIL_JSON_H
#define QAC_UTIL_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace qac::util::json {

inline void
appendEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

inline void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    appendEscaped(out, s);
    out += '"';
}

inline void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

inline void
appendU64(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

} // namespace qac::util::json

#endif // QAC_UTIL_JSON_H
