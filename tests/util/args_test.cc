/**
 * @file
 * Tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include "util/args.hh"

namespace dstrain {
namespace {

ArgParser
makeParser()
{
    ArgParser args("prog", "test program");
    args.addOption("nodes", "1", "node count");
    args.addOption("model", "6.6", "model size");
    args.addFlag("csv", "emit csv");
    return args;
}

TEST(ArgParserTest, DefaultsApply)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(args.get("nodes"), "1");
    EXPECT_EQ(args.getInt("nodes"), 1);
    EXPECT_DOUBLE_EQ(args.getDouble("model"), 6.6);
    EXPECT_FALSE(args.getFlag("csv"));
    EXPECT_FALSE(args.provided("nodes"));
}

TEST(ArgParserTest, SpaceAndEqualsForms)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--nodes", "2", "--model=11.4",
                          "--csv"};
    ASSERT_TRUE(args.parse(5, argv));
    EXPECT_EQ(args.getInt("nodes"), 2);
    EXPECT_DOUBLE_EQ(args.getDouble("model"), 11.4);
    EXPECT_TRUE(args.getFlag("csv"));
    EXPECT_TRUE(args.provided("nodes"));
}

TEST(ArgParserTest, PositionalsCollected)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "alpha", "--nodes", "2", "beta"};
    ASSERT_TRUE(args.parse(5, argv));
    EXPECT_EQ(args.positional(),
              (std::vector<std::string>{"alpha", "beta"}));
}

TEST(ArgParserTest, UnknownOptionRejected)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--bogus", "1"};
    EXPECT_FALSE(args.parse(3, argv));
}

TEST(ArgParserTest, MissingValueRejected)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--nodes"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(ArgParserTest, FlagWithValueRejected)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--csv=yes"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(ArgParserTest, HelpShortCircuits)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(args.parse(2, argv));
    EXPECT_NE(args.helpText().find("--nodes"), std::string::npos);
    EXPECT_NE(args.helpText().find("node count"), std::string::npos);
}

TEST(ArgParserDeathTest, MalformedNumbersFatal)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--nodes", "two"};
    ASSERT_TRUE(args.parse(3, argv));
    EXPECT_EXIT(args.getInt("nodes"), testing::ExitedWithCode(1),
                "integer");

    // Beyond int: rejected, not wrapped to an unrelated count.
    ArgParser wide = makeParser();
    const char *wide_argv[] = {"prog", "--nodes", "99999999999"};
    ASSERT_TRUE(wide.parse(3, wide_argv));
    EXPECT_EXIT(wide.getInt("nodes"), testing::ExitedWithCode(1),
                "out of range");
}

TEST(ArgParserDeathTest, UndeclaredAccessPanics)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_DEATH(args.get("nope"), "undeclared");
}

} // namespace
} // namespace dstrain
