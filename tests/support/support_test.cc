/**
 * @file
 * Unit tests for the support library (formatting, RNG, CSV, tables,
 * flags).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/flags.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strfmt.hh"

namespace capo::support {
namespace {

TEST(LoggingTest, SimTimePrefixEmptyWithoutHook)
{
    EXPECT_EQ(simTimePrefix(), "");
}

TEST(LoggingTest, SimTimeHookFormatsSeconds)
{
    auto previous = setSimTimeHook([] { return 1.5e9; });
    EXPECT_EQ(simTimePrefix(), "[  1.500000s] ");
    setSimTimeHook([] { return 0.0; });
    EXPECT_EQ(simTimePrefix(), "[  0.000000s] ");
    setSimTimeHook(std::move(previous));
    EXPECT_EQ(simTimePrefix(), "");
}

TEST(LoggingTest, ScopedHookRestoresPrevious)
{
    ScopedSimTimeHook outer([] { return 2e9; });
    EXPECT_EQ(simTimePrefix(), "[  2.000000s] ");
    {
        ScopedSimTimeHook inner([] { return 3e9; });
        EXPECT_EQ(simTimePrefix(), "[  3.000000s] ");
    }
    EXPECT_EQ(simTimePrefix(), "[  2.000000s] ");
}

TEST(StrfmtTest, ConcatJoinsHeterogeneousValues)
{
    EXPECT_EQ(concat("a", 1, "-", 2.5), "a1-2.5");
    EXPECT_EQ(concat(), "");
}

TEST(StrfmtTest, FixedAndPercent)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(-1.0, 0), "-1");
    EXPECT_EQ(percent(0.153, 1), "15.3 %");
}

TEST(StrfmtTest, HumanBytes)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(1536), "1.5 KB");
    EXPECT_EQ(humanBytes(12ull << 20, 0), "12 MB");
    EXPECT_EQ(humanBytes(3ull << 30), "3.0 GB");
}

TEST(StrfmtTest, HumanNanos)
{
    EXPECT_EQ(humanNanos(12.0), "12.0 ns");
    EXPECT_EQ(humanNanos(1.2e4), "12.0 us");
    EXPECT_EQ(humanNanos(3.25e6, 2), "3.25 ms");
    EXPECT_EQ(humanNanos(2.5e9), "2.5 s");
}

TEST(StrfmtTest, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian(10.0, 2.0);
        sum += g;
        sq += g * g;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, HeavyTailMeanAndSupport)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = rng.heavyTail(5.0, 2.2);
        ASSERT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 5.0, 0.35);
}

TEST(RngTest, UniformIntBounds)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(rng.uniformInt(7), 7u);
}

TEST(RngTest, ForkedStreamsAreIndependentAndStable)
{
    Rng base(101);
    Rng f1 = base.fork(1);
    Rng f1_again = Rng(101).fork(1);
    Rng f2 = base.fork(2);
    EXPECT_EQ(f1.next(), f1_again.next());
    EXPECT_NE(f1.next(), f2.next());
}

TEST(FlagsTest, ParsesAllForms)
{
    Flags flags("test");
    flags.addString("mode", "fast", "mode to use");
    flags.addInt("count", 3, "how many");
    flags.addDouble("scale", 1.5, "scaling");
    flags.addBool("verbose", false, "chatty");

    const char *argv[] = {"prog",   "--mode=slow", "--count", "7",
                          "--verbose", "positional"};
    flags.parse(6, argv);

    EXPECT_EQ(flags.getString("mode"), "slow");
    EXPECT_EQ(flags.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(flags.getDouble("scale"), 1.5);
    EXPECT_TRUE(flags.getBool("verbose"));
    ASSERT_EQ(flags.positionals().size(), 1u);
    EXPECT_EQ(flags.positionals()[0], "positional");
}

TEST(FlagsTest, SingleDashFormsForDeclaredNames)
{
    Flags flags("test");
    flags.addInt("n", 5, "iterations");
    flags.addBool("p", false, "print stats");
    const char *argv[] = {"prog", "-n", "3", "-p", "-42", "bench"};
    flags.parse(6, argv);
    EXPECT_EQ(flags.getInt("n"), 3);
    EXPECT_TRUE(flags.getBool("p"));
    // Undeclared single-dash tokens stay positional (negative numbers).
    ASSERT_EQ(flags.positionals().size(), 2u);
    EXPECT_EQ(flags.positionals()[0], "-42");
    EXPECT_EQ(flags.positionals()[1], "bench");
}

TEST(FlagsTest, UsageMentionsFlags)
{
    Flags flags("demo tool");
    flags.addInt("n", 1, "iterations");
    const std::string usage = flags.usage();
    EXPECT_NE(usage.find("demo tool"), std::string::npos);
    EXPECT_NE(usage.find("--n"), std::string::npos);
    EXPECT_NE(usage.find("iterations"), std::string::npos);
}

} // namespace
} // namespace capo::support
