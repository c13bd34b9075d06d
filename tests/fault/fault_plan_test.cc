/**
 * @file
 * Tests for FaultPlan parsing, validation and rendering.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fault/fault_plan.hh"

namespace dstrain {
namespace {

FaultPlan
parseOk(const std::string &spec)
{
    std::vector<ConfigError> errors;
    FaultPlan plan = parseFaultSpec(spec, &errors);
    EXPECT_TRUE(errors.empty())
        << spec << ": " << formatConfigErrors(errors);
    return plan;
}

std::vector<ConfigError>
parseBad(const std::string &spec)
{
    std::vector<ConfigError> errors;
    parseFaultSpec(spec, &errors);
    EXPECT_FALSE(errors.empty()) << spec << " parsed unexpectedly";
    return errors;
}

TEST(FaultPlanTest, ParsesEveryKind)
{
    const FaultPlan plan = parseOk(
        "degrade@1+0.5:roce:0.4,flap@2+0.2:roce/n1,"
        "nicdown@1+1:n0.nic1,straggler@0+2:rank3:0.6,nvme@1:n0:0.5");
    ASSERT_EQ(plan.events.size(), 5u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::LinkDegrade);
    EXPECT_EQ(plan.events[1].kind, FaultKind::LinkFlap);
    EXPECT_EQ(plan.events[2].kind, FaultKind::NicFailover);
    EXPECT_EQ(plan.events[3].kind, FaultKind::GpuStraggler);
    EXPECT_EQ(plan.events[4].kind, FaultKind::NvmeDegrade);

    EXPECT_DOUBLE_EQ(plan.events[0].begin, 1.0);
    EXPECT_DOUBLE_EQ(plan.events[0].duration, 0.5);
    EXPECT_DOUBLE_EQ(plan.events[0].fraction, 0.4);
    EXPECT_EQ(plan.events[1].target, "roce/n1");
    EXPECT_DOUBLE_EQ(plan.events[4].duration, 0.0);  // rest of run
}

TEST(FaultPlanTest, StrRoundTrips)
{
    const std::string spec =
        "degrade@1+0.5:roce:0.4,nicdown@1+1:n0.nic1,"
        "straggler@0+2:rank3:0.6";
    const FaultPlan plan = parseOk(spec);
    EXPECT_EQ(plan.str(), spec);

    // Parsing the rendering again reproduces the same plan.
    const FaultPlan again = parseOk(plan.str());
    ASSERT_EQ(again.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i)
        EXPECT_EQ(again.events[i].str(), plan.events[i].str());
}

TEST(FaultPlanTest, DefaultsWhenOmitted)
{
    const FaultPlan plan = parseOk("degrade@3:nvlink");
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.events[0].begin, 3.0);
    EXPECT_DOUBLE_EQ(plan.events[0].duration, 0.0);
    EXPECT_DOUBLE_EQ(plan.events[0].fraction, 0.5);
}

TEST(FaultPlanTest, ParsesLinkDown)
{
    const FaultPlan plan =
        parseOk("linkdown@2:rail1,linkdown@3:sw0,"
                "linkdown@1:roce/rack0,linkdown@4:nvlink/n1");
    ASSERT_EQ(plan.events.size(), 4u);
    for (const FaultEvent &ev : plan.events) {
        EXPECT_EQ(ev.kind, FaultKind::LinkDown);
        EXPECT_DOUBLE_EQ(ev.duration, 0.0);
        EXPECT_FALSE(isHardFault(ev.kind));
    }
    EXPECT_EQ(plan.events[0].target, "rail1");
    EXPECT_EQ(plan.events[0].str(), "linkdown@2:rail1");

    // Round-trip through the rendering.
    const FaultPlan again = parseOk(plan.str());
    ASSERT_EQ(again.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i)
        EXPECT_EQ(again.events[i].str(), plan.events[i].str());
}

TEST(FaultPlanTest, LinkDownRejectsDurationFractionAndBadTargets)
{
    parseBad("linkdown@2+1:rail1");      // permanent: no duration
    parseBad("linkdown@2:rail1:0.5");    // takes no fraction
    parseBad("linkdown@2:rank3");        // link targets only
    parseBad("linkdown@2:n0.nic1");      // nicdown's namespace
    parseBad("linkdown@2:warp-core");    // unknown class
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan)
{
    EXPECT_TRUE(parseOk("").empty());
    EXPECT_TRUE(parseOk(" , ,").empty());
    EXPECT_FALSE(parseOk("degrade@1:roce").empty());
}

TEST(FaultPlanTest, RejectsMalformedSpecs)
{
    parseBad("degrade");                       // missing @
    parseBad("degrade@1");                     // missing target
    parseBad("meteor@1:roce");                 // unknown kind
    parseBad("degrade@x:roce");                // bad begin
    parseBad("degrade@1+y:roce");              // bad duration
    parseBad("degrade@1:roce:2.0");            // fraction > 1
    parseBad("degrade@1:roce:0");              // fraction 0
    parseBad("degrade@1:warp-core:0.5");       // unknown class
    parseBad("flap@1:roce:0.5");               // flap takes no fraction
    parseBad("nicdown@1:nic1");                // missing node scope
    parseBad("straggler@1:gpu3:0.5");          // rank<k> expected
    parseBad("degrade@1:roce:0.5:extra");      // too many fields
}

TEST(FaultPlanTest, ErrorsNameTheOffendingItem)
{
    const auto errors = parseBad("degrade@1:roce:0.4,meteor@1:roce");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].field, "faults[1] at char 19 ('meteor@1:roce')");
    EXPECT_NE(errors[0].message.find("unknown kind"),
              std::string::npos);
}

TEST(FaultPlanTest, ErrorPositionSkipsLeadingWhitespace)
{
    // The reported character offset points at the item itself, not
    // the separator/whitespace before it.
    const auto errors = parseBad("degrade@1:roce,  meteor@2:roce");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].field, "faults[1] at char 17 ('meteor@2:roce')");

    const auto first = parseBad("meteor@1:roce");
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].field, "faults[0] at char 0 ('meteor@1:roce')");
}

TEST(FaultPlanTest, MalformedSpecsNeverCrashAndNeverSkip)
{
    // Every malformed item must surface as a ConfigError — never a
    // crash, never a silently dropped event.
    const char *const bad[] = {
        "@", ":", "@@", "degrade@@1:roce", "degrade@1::",
        "degrade@1+:roce", "degrade@1:roce:", "degrade@1:roce:nan",
        "degrade@1:roce:inf", "degrade@1e999:roce", "nodedown@1:n",
        "gpudown@1:rank", "gpudown@1:rankx", "nodedown@1:nx",
        "@1:roce", "degrade@:roce", "+1@2:roce",
    };
    for (const char *spec : bad) {
        std::vector<ConfigError> errors;
        parseFaultSpec(spec, &errors);
        EXPECT_FALSE(errors.empty())
            << "'" << spec << "' parsed without error";
    }
}

TEST(FaultPlanTest, ParsesHardFaults)
{
    const FaultPlan plan = parseOk("gpudown@3:rank2,nodedown@4:n1");
    ASSERT_EQ(plan.events.size(), 2u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::GpuDown);
    EXPECT_EQ(plan.events[0].target, "rank2");
    EXPECT_EQ(plan.events[1].kind, FaultKind::NodeDown);
    EXPECT_EQ(plan.events[1].target, "n1");
    EXPECT_TRUE(isHardFault(FaultKind::GpuDown));
    EXPECT_TRUE(isHardFault(FaultKind::NodeDown));
    EXPECT_FALSE(isHardFault(FaultKind::LinkDegrade));
    EXPECT_TRUE(hasHardFaults(plan));
    EXPECT_FALSE(hasHardFaults(parseOk("degrade@1:roce")));

    // Hard-fault specs round-trip through str().
    const FaultPlan again = parseOk(plan.str());
    ASSERT_EQ(again.events.size(), 2u);
    EXPECT_EQ(again.events[0].str(), plan.events[0].str());
}

TEST(FaultPlanTest, HardFaultsRejectDurationAndFraction)
{
    // Permanent failures take no window or fraction.
    parseBad("gpudown@3+1:rank2");
    parseBad("nodedown@3+1:n1");
    parseBad("gpudown@3:rank2:0.5");
    parseBad("nodedown@3:n1:0.5");
    // Target grammar: rank<k> for gpudown, n<k> for nodedown.
    parseBad("gpudown@3:n1");
    parseBad("nodedown@3:rank2");
}

TEST(FaultPlanTest, FabricTargetNamespacesParse)
{
    const FaultPlan plan = parseOk(
        "degrade@1+1:rail1:0.3,flap@2+0.5:sw3,"
        "degrade@1:roce/rack0:0.5");
    ASSERT_EQ(plan.events.size(), 3u);
    EXPECT_EQ(plan.events[0].target, "rail1");
    EXPECT_EQ(plan.events[1].target, "sw3");
    EXPECT_EQ(plan.events[2].target, "roce/rack0");
}

TEST(FaultPlanTest, FabricTargetNamespacesRejectBadSpellings)
{
    parseBad("degrade@1:rail:0.5");       // missing rail index
    parseBad("degrade@1:roce/sw0:0.5");   // switch is not a scope
    parseBad("flap@1:rack0");             // rack alone is no namespace
    const auto errors = parseBad("degrade@1:bogus:0.5");
    // The message teaches the namespaces (satellite of the fabric
    // refactor: no bare "unknown target").
    EXPECT_NE(errors[0].message.find("rail<r>"), std::string::npos);
    EXPECT_NE(errors[0].message.find("sw<j>"), std::string::npos);
    EXPECT_NE(errors[0].message.find("rack<k>"), std::string::npos);
}

TEST(FaultPlanTest, TargetIndicesAreDigitsThatFitAnInt)
{
    // One grammar validates and resolves a target, so an index that
    // wraps past an int, or that strtol/atoi would read past a sign
    // or a space, is an error naming the target, not another target.
    const std::pair<const char *, const char *> cases[] = {
        {"straggler@1+1:rank4294967297:0.5", "rank4294967297"},
        {"linkdown@1:rail4294967296", "rail4294967296"},
        {"nicdown@1+0.1:n4294967296.nic1", "n4294967296.nic1"},
        {"nodedown@1:n2147483648", "n2147483648"},
        {"straggler@1+1:rank+3:0.5", "rank+3"},
        {"straggler@1+1:rank 3:0.5", "rank 3"},
    };
    for (const auto &[spec, target] : cases) {
        const auto errors = parseBad(spec);
        if (errors.empty())
            continue;  // parseBad() reported it
        EXPECT_EQ(errors.size(), 1u) << spec;
        EXPECT_NE(errors[0].message.find("target '" + std::string(target) +
                                         "'"),
                  std::string::npos)
            << spec << ": " << errors[0].message;
    }
}

TEST(FaultPlanTest, ParseFaultTargetReturnsTheTypedTarget)
{
    using Scope = FaultTarget::Scope;
    std::string error;
    const auto cls =
        parseFaultTarget(FaultKind::LinkDegrade, "pcie-nvme/rack2", &error);
    ASSERT_TRUE(cls) << error;
    EXPECT_EQ(cls->scope, Scope::Class);
    EXPECT_EQ(cls->cls, LinkClass::PcieNvme);
    EXPECT_EQ(cls->rack, 2);
    EXPECT_EQ(cls->node, -1);

    const auto nic =
        parseFaultTarget(FaultKind::NicFailover, "n3.nic1", &error);
    ASSERT_TRUE(nic) << error;
    EXPECT_EQ(nic->scope, Scope::Nic);
    EXPECT_EQ(nic->node, 3);
    EXPECT_EQ(nic->index, 1);

    const auto node =
        parseFaultTarget(FaultKind::NodeDown, "n2147483647", &error);
    ASSERT_TRUE(node) << error;
    EXPECT_EQ(node->scope, Scope::Node);
    EXPECT_EQ(node->node, 2147483647);

    EXPECT_FALSE(parseFaultTarget(FaultKind::LinkFlap, "sw-1", &error));
    EXPECT_EQ(parseFaultTarget(FaultKind::LinkDown, "rail7", &error)->index,
              7);
    EXPECT_FALSE(parseFaultTarget(FaultKind::GpuDown, "rank", &error));
    EXPECT_EQ(error, "expected rank<k>");
}

TEST(FaultPlanTest, ValidateChecksRanges)
{
    FaultPlan plan;
    FaultEvent ev;
    ev.kind = FaultKind::LinkDegrade;
    ev.begin = -1.0;
    ev.target = "roce";
    plan.events.push_back(ev);
    const auto errors = plan.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].field, "faults.events[0]");

    // A window past the simulated-time horizon, and a fraction so
    // small the faulted work never ends.
    for (const auto &[begin, fraction] :
         {std::pair{1e300, 0.5}, std::pair{0.0, 1e-300}}) {
        FaultPlan far;
        FaultEvent late = ev;
        late.begin = begin;
        late.fraction = fraction;
        far.events.push_back(late);
        const auto far_errors = far.validate();
        ASSERT_EQ(far_errors.size(), 1u) << begin << " " << fraction;
        EXPECT_EQ(far_errors[0].field, "faults.events[0]");
    }
}

} // namespace
} // namespace dstrain
