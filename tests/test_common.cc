/**
 * @file
 * Unit tests for the common module: tick/unit conversions, frequency
 * ladders and the voltage map, the RNG distributions, CSV output, and
 * strict number parsing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hh"
#include "common/dvfs.hh"
#include "common/parse_num.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace coscale {
namespace {

TEST(Types, PeriodOfCommonFrequencies)
{
    EXPECT_EQ(periodTicks(1 * GHz), 1000u);
    EXPECT_EQ(periodTicks(4 * GHz), 250u);
    EXPECT_EQ(periodTicks(800 * MHz), 1250u);
    EXPECT_EQ(periodTicks(200 * MHz), 5000u);
}

TEST(Types, UnitConversionsRoundTrip)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(tickPerSec), 1.0);
    EXPECT_EQ(secondsToTicks(1e-3), tickPerMs);
    EXPECT_EQ(nsToTicks(15.0), 15000u);
    EXPECT_DOUBLE_EQ(ticksToNs(15000), 15.0);
    EXPECT_EQ(cyclesToTicks(28, 800 * MHz), 35000u);
}

TEST(FreqLadder, DefaultCoreLadderMatchesPaper)
{
    FreqLadder l = defaultCoreLadder();
    ASSERT_EQ(l.size(), 10);
    EXPECT_DOUBLE_EQ(l.freq(0), 4.0 * GHz);
    EXPECT_DOUBLE_EQ(l.freq(9), 2.2 * GHz);
    EXPECT_NEAR(l.freq(1), 3.8 * GHz, 1.0);
    EXPECT_DOUBLE_EQ(l.voltage(0), 1.20);
    EXPECT_DOUBLE_EQ(l.voltage(9), 0.65);
    // Linear voltage map.
    EXPECT_NEAR(l.voltage(5), 0.65 + (1.2 - 0.65) * (3.0 - 2.2) / 1.8,
                1e-9);
}

TEST(FreqLadder, DefaultMemLadderMatchesPaper)
{
    FreqLadder l = defaultMemLadder();
    ASSERT_EQ(l.size(), 10);
    EXPECT_DOUBLE_EQ(l.freq(0), 800 * MHz);
    EXPECT_DOUBLE_EQ(l.freq(9), 200 * MHz);
    // 66 MHz steps.
    for (int i = 1; i < 9; ++i)
        EXPECT_NEAR(l.freq(i - 1) - l.freq(i), 66 * MHz, 1e6);
}

TEST(FreqLadder, HalfVoltageRange)
{
    FreqLadder l = halfVoltageCoreLadder();
    EXPECT_DOUBLE_EQ(l.voltage(0), 1.20);
    EXPECT_DOUBLE_EQ(l.voltage(9), 0.95);
}

TEST(FreqLadder, ScaleDirectionHelpers)
{
    FreqLadder l = defaultCoreLadder(4);
    EXPECT_TRUE(l.canScaleDown(0));
    EXPECT_FALSE(l.canScaleDown(3));
    EXPECT_FALSE(l.canScaleUp(0));
    EXPECT_TRUE(l.canScaleUp(3));
}

TEST(FreqLadder, CustomStepCounts)
{
    for (int steps : {4, 7, 10}) {
        FreqLadder core = defaultCoreLadder(steps);
        FreqLadder mem = defaultMemLadder(steps);
        EXPECT_EQ(core.size(), steps);
        EXPECT_EQ(mem.size(), steps);
        EXPECT_DOUBLE_EQ(core.fMax(), 4.0 * GHz);
        EXPECT_DOUBLE_EQ(core.fMin(), 2.2 * GHz);
        EXPECT_DOUBLE_EQ(mem.fMax(), 800 * MHz);
        EXPECT_DOUBLE_EQ(mem.fMin(), 200 * MHz);
    }
}

TEST(Rng, Determinism)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, CopyPreservesStream)
{
    Rng a(7);
    a.next();
    Rng b = a;  // value copy
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(1);
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ExponentialMean)
{
    Rng r(2);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, GeometricMean)
{
    Rng r(3);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(0.1));
    EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, GeometricAlwaysPositive)
{
    Rng r(4);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GE(r.geometric(0.999), 1u);
        EXPECT_GE(r.geometric(1.0), 1u);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(5);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Csv, WritesRowsToFile)
{
    std::string path = "test_csv_out.csv";
    {
        CsvWriter w(path);
        w.header({"a", "b", "c"});
        w.row().cell(1).cell(2.5).cell("x");
        w.row().cell("y").cell(3).cell(4.25);
        w.endRow();
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "a,b,c\n1,2.5,x\ny,3,4.25\n");
    std::remove(path.c_str());
}

TEST(ParseNum, WholeTokenOrNothing)
{
    EXPECT_EQ(parseDouble("2.5"), 2.5);
    EXPECT_EQ(parseDouble("-1e3"), -1000.0);
    for (const char *bad :
         {"", "abc", "2x", "0.5x", "nan", "inf", "1e999", " 2"})
        EXPECT_FALSE(parseDouble(bad).has_value()) << bad;

    EXPECT_EQ(parseInt("16"), 16);
    EXPECT_EQ(parseInt("-3"), -3);
    for (const char *bad : {"", "abc", "2x", "1.5", "99999999999"})
        EXPECT_FALSE(parseInt(bad).has_value()) << bad;

    EXPECT_EQ(parseU64("18446744073709551615"),
              std::uint64_t{18446744073709551615ULL});
    for (const char *bad : {"", "-1", " -1", "7s", "18446744073709551616"})
        EXPECT_FALSE(parseU64(bad).has_value()) << bad;
}

TEST(ParseNum, FlagParsersAreFatalOnJunk)
{
    EXPECT_EQ(flagInt("--cores", "4"), 4);
    EXPECT_EXIT(flagInt("--cores", "abc"), ::testing::ExitedWithCode(1),
                "--cores must be an integer, got 'abc'");
    EXPECT_EXIT(flagDouble("--cap", "2x"), ::testing::ExitedWithCode(1),
                "--cap must be a finite number, got '2x'");
    EXPECT_EXIT(flagU64("--seed", "-1"), ::testing::ExitedWithCode(1),
                "--seed must be an unsigned integer");
}

} // namespace
} // namespace coscale
