/**
 * @file
 * String utilities: splitting, joining, padding, case-insensitive
 * comparison. Nothing here is dstrain-specific; it exists to avoid
 * pulling heavier dependencies for table/CSV output.
 */

#ifndef DSTRAIN_UTIL_STRINGS_HH
#define DSTRAIN_UTIL_STRINGS_HH

#include <string>
#include <string_view>
#include <vector>

namespace dstrain {

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char sep);

/** Join @p parts with @p sep between consecutive elements. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Pad or truncate @p text on the right to exactly @p width chars. */
std::string padRight(std::string_view text, std::size_t width);

/** Pad or truncate @p text on the left to exactly @p width chars. */
std::string padLeft(std::string_view text, std::size_t width);

/** Trim ASCII whitespace from both ends. */
std::string trim(std::string_view text);

/** True when @p text starts with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/**
 * Append @p v exactly as printf's "%a" writes it ("0x1.8p+1",
 * "-0x0p+0", "0x0.0000000000001p-1022", "inf", "-nan"), without the
 * printf machinery for all but subnormals: std::to_chars' hex form,
 * with the "0x" prefix printf puts after the sign of a finite value.
 */
void appendHexFloat(std::string &out, double v);

} // namespace dstrain

#endif // DSTRAIN_UTIL_STRINGS_HH
