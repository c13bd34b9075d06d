/**
 * @file
 * Tests for the string utilities.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace dstrain {
namespace {

TEST(SplitTest, BasicAndEdgeCases)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split(",x,", ','),
              (std::vector<std::string>{"", "x", ""}));
}

TEST(JoinTest, RoundTripsWithSplit)
{
    const std::vector<std::string> parts = {"one", "two", "three"};
    EXPECT_EQ(join(parts, "-"), "one-two-three");
    EXPECT_EQ(split(join(parts, ","), ','), parts);
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(PadTest, RightAndLeft)
{
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("abcdef", 3), "abc");
    EXPECT_EQ(padLeft("abcdef", 3), "abc");
    EXPECT_EQ(padRight("", 2), "  ");
}

TEST(TrimTest, Whitespace)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("\t\nx\r "), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("nospace"), "nospace");
}

TEST(StartsWithTest, Prefixes)
{
    EXPECT_TRUE(startsWith("dstrain", "ds"));
    EXPECT_TRUE(startsWith("dstrain", ""));
    EXPECT_FALSE(startsWith("ds", "dstrain"));
    EXPECT_FALSE(startsWith("dstrain", "tr"));
}

TEST(ToLowerTest, Ascii)
{
    EXPECT_EQ(toLower("ZeRO-3"), "zero-3");
    EXPECT_EQ(toLower(""), "");
}

TEST(AppendHexFloatTest, MatchesPrintfHexFloat)
{
    // Report fingerprints are built with appendHexFloat() instead of
    // "%a"; every golden depends on the two agreeing byte for byte.
    using limits = std::numeric_limits<double>;
    const auto matches = [](double v) {
        std::string out = "|";
        appendHexFloat(out, v);
        EXPECT_EQ(out.substr(1), csprintf("%a", v));
    };
    for (double v :
         {0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 0.1, -2.5e-3, 4.2016231592930104,
          limits::min(), -limits::min(), limits::max(), -limits::max(),
          limits::denorm_min(), -limits::denorm_min(),
          limits::min() - limits::denorm_min(), limits::min() / 3.0,
          limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
          -limits::quiet_NaN()})
        matches(v);
    // Random bit patterns: every exponent, subnormals and NaN
    // payloads included.
    Rng rng(23);
    for (int i = 0; i < 20000; ++i)
        matches(std::bit_cast<double>(rng.next()));
}

} // namespace
} // namespace dstrain
