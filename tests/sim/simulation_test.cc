/**
 * @file
 * Tests for the simulation context.
 */

#include <gtest/gtest.h>

#include "sim/simulation.hh"

namespace dstrain {
namespace {

TEST(SimulationTest, StartsAtTimeZero)
{
    Simulation sim;
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(SimulationTest, RunAdvancesToLastEvent)
{
    Simulation sim;
    sim.events().schedule(2.5, [] {});
    EXPECT_DOUBLE_EQ(sim.run(), 2.5);
    EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(SimulationTest, RunUntilDelegates)
{
    Simulation sim;
    bool ran = false;
    sim.events().schedule(10.0, [&] { ran = true; });
    sim.runUntil(5.0);
    EXPECT_FALSE(ran);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulationTest, EventLimitConfigurable)
{
    Simulation sim;
    EXPECT_EQ(sim.eventLimit(), 200'000'000u);
    sim.setEventLimit(10);
    EXPECT_EQ(sim.eventLimit(), 10u);
    // Under the limit: no panic.
    sim.events().schedule(1.0, [] {});
    sim.run();
    sim.checkEventLimit();
}

TEST(SimulationDeathTest, EventLimitPanics)
{
    Simulation sim;
    sim.setEventLimit(3);
    for (int i = 0; i < 10; ++i)
        sim.events().schedule(static_cast<SimTime>(i), [] {});
    sim.run();
    EXPECT_DEATH(sim.checkEventLimit(), "event limit");
}

} // namespace
} // namespace dstrain
