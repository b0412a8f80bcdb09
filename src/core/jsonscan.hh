/**
 * @file
 * Restricted JSON scanner shared by the small config-style parsers.
 *
 * The project deliberately takes no external JSON dependency; the few
 * inputs that accept JSON (fault plans, sweep specs) use a restricted
 * schema — objects, arrays, strings, numbers, booleans — and parse it
 * with this scanner. Every malformed document becomes a
 * CCharError(ParseError) whose message carries the caller's context
 * prefix, so the CLI maps it onto the documented input-error exit
 * code instead of aborting.
 */

#ifndef CCHAR_CORE_JSONSCAN_HH
#define CCHAR_CORE_JSONSCAN_HH

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>

#include "status.hh"

namespace cchar::core {

/** Recursive-descent token reader over a JSON document. */
class JsonScanner
{
  public:
    /**
     * @param text    The document (must outlive the scanner).
     * @param context Error-message prefix ("fault plan", ...).
     */
    JsonScanner(const std::string &text, std::string context)
        : text_(text), context_(std::move(context))
    {}

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw CCharError(StatusCode::ParseError,
                         context_ + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of JSON");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string{"expected '"} + c + "' in JSON");
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string
    readString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("bad escape in JSON string");
                char esc = text_[pos_++];
                // Decode the standard single-character escapes so a
                // string written by a conforming serializer (e.g. the
                // sweep job journal, whose error messages carry
                // newlines) round-trips exactly; unrecognized escapes
                // keep the escaped character verbatim, preserving the
                // scanner's historical tolerance.
                switch (esc) {
                case 'n':
                    out += '\n';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'r':
                    out += '\r';
                    break;
                case 'b':
                    out += '\b';
                    break;
                case 'f':
                    out += '\f';
                    break;
                default:
                    out += esc;
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= text_.size())
            fail("unterminated JSON string");
        ++pos_; // closing quote
        return out;
    }

    /**
     * Exact unsigned 64-bit integer. readNumber() goes through a
     * double and silently loses precision past 2^53, which is not
     * acceptable for event counters round-tripping through the sweep
     * job journal.
     */
    std::uint64_t
    readUInt()
    {
        skipWs();
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_])))
            fail("expected JSON unsigned integer");
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        unsigned long long v = std::strtoull(begin, &end, 10);
        pos_ += static_cast<std::size_t>(end - begin);
        return static_cast<std::uint64_t>(v);
    }

    double
    readNumber()
    {
        skipWs();
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            fail("bad JSON number");
        pos_ += static_cast<std::size_t>(end - begin);
        return v;
    }

    bool
    readBool()
    {
        skipWs();
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return false;
        }
        fail("expected JSON boolean");
    }

    bool
    atEnd()
    {
        skipWs();
        return pos_ >= text_.size();
    }

  private:
    const std::string &text_;
    std::string context_;
    std::size_t pos_ = 0;
};

/**
 * Write `s` as a JSON string literal: the writing side of the scanner,
 * shared by the sweep report, journal and chaos writers.
 */
inline void
writeJsonString(std::ostream &os, const std::string &s)
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
            os << c;
        }
    }
    os << '"';
}

} // namespace cchar::core

#endif // CCHAR_CORE_JSONSCAN_HH
