/**
 * @file
 * Implementation of the string utilities.
 */

#include "util/strings.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "util/logging.hh"

namespace dstrain {

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            break;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
padRight(std::string_view text, std::size_t width)
{
    std::string out(text.substr(0, width));
    out.resize(width, ' ');
    return out;
}

std::string
padLeft(std::string_view text, std::size_t width)
{
    if (text.size() >= width)
        return std::string(text.substr(0, width));
    std::string out(width - text.size(), ' ');
    out += text;
    return out;
}

std::string
trim(std::string_view text)
{
    const auto is_space = [](unsigned char c) { return std::isspace(c); };
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && is_space(text[begin]))
        ++begin;
    while (end > begin && is_space(text[end - 1]))
        --end;
    return std::string(text.substr(begin, end - begin));
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

void
appendHexFloat(std::string &out, double v)
{
    // The standard leaves a subnormal's leading hex digit open: glibc
    // writes 0x0.0000000000001p-1022 where newer libstdc++ writes
    // 1p-1074. Those rare values take printf itself.
    if (std::fpclassify(v) == FP_SUBNORMAL) {
        out += csprintf("%a", v);
        return;
    }
    char buf[32];  // "-1.fffffffffffffp-1022" is the longest
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, v, std::chars_format::hex);
    const char *digits = buf;
    if (*digits == '-') {
        out += '-';
        ++digits;
    }
    if (std::isfinite(v))
        out += "0x";
    out.append(digits, static_cast<std::size_t>(r.ptr - digits));
}

} // namespace dstrain
