/**
 * @file
 * JSON string literal writer shared by every JSON emitter (metrics,
 * traces, telemetry, reports, sweep and chaos output). Header-only so
 * the observability layer can use it without linking core.
 */

#ifndef CCHAR_OBS_JSON_HH
#define CCHAR_OBS_JSON_HH

#include <cstdio>
#include <ostream>
#include <string_view>

namespace cchar::obs {

/**
 * Write `s` as a JSON string literal. Quotes, backslashes and every
 * control character are escaped, so any byte string (a user-chosen
 * file name, say) yields a document strict parsers accept.
 */
inline void
writeJsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        case '\r':
            os << "\\r";
            break;
        case '\b':
            os << "\\b";
            break;
        case '\f':
            os << "\\f";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace cchar::obs

#endif // CCHAR_OBS_JSON_HH
