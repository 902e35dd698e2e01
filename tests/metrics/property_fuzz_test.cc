/**
 * @file
 * Randomized property tests over the methodology metrics: for
 * arbitrary (seeded) inputs, the defining invariants of LBO and
 * metered latency must hold, and the file-based export paths must
 * round-trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "metrics/latency.hh"
#include "metrics/lbo.hh"
#include "report/artifact.hh"
#include "support/rng.hh"

namespace capo::metrics {
namespace {

class LboFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(LboFuzz, DistillationInvariantsHoldForRandomCosts)
{
    support::Rng rng(GetParam());
    LboAnalysis lbo;
    const char *collectors[] = {"A", "B", "C", "D"};
    for (const char *collector : collectors) {
        for (double factor : {1.0, 2.0, 4.0}) {
            RunCost cost;
            cost.wall = rng.uniform(1e8, 1e10);
            cost.cpu = cost.wall * rng.uniform(1.0, 16.0);
            cost.stw_wall = cost.wall * rng.uniform(0.0, 0.5);
            cost.stw_cpu = cost.cpu * rng.uniform(0.0, 0.5);
            lbo.add(collector, factor, cost);
        }
    }

    // The baselines are the minimum residues: every configuration's
    // residue is >= baseline, so every configuration's *total* is too
    // (overheads can never dip below the residue ratio, and the
    // configuration defining the baseline has overhead >= 1).
    double min_wall_overhead = 1e300;
    double min_cpu_overhead = 1e300;
    for (const char *collector : collectors) {
        for (double factor : lbo.factors(collector)) {
            const auto o = lbo.overhead(collector, factor);
            ASSERT_GE(o.wall, 1.0);
            ASSERT_GE(o.cpu, 1.0);
            min_wall_overhead = std::min(min_wall_overhead, o.wall);
            min_cpu_overhead = std::min(min_cpu_overhead, o.cpu);
        }
    }
    // Some configuration sits close to the baseline: its overhead is
    // exactly total/residue of the minimal-residue config.
    EXPECT_LT(min_wall_overhead, 1.0 / (1.0 - 0.5) + 1e-9);
    EXPECT_LT(min_cpu_overhead, 1.0 / (1.0 - 0.5) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LboFuzz,
                         ::testing::Values(1, 7, 42, 1337, 90210));

class MeteredFuzz : public ::testing::TestWithParam<int>
{
};

/**
 * Metered latency dominates simple latency event by event (paired
 * through byStart()), synthetic starts stay monotone within the span,
 * and a tiny window reproduces simple latency.
 */
void
checkMeteredLimits(const LatencyRecorder &rec)
{
    const auto by_start = rec.byStart();
    for (double window : {0.0, 10.0, 1000.0, 50000.0}) {
        const auto synth = rec.syntheticStarts(window);
        const auto metered = rec.meteredLatencies(window);
        ASSERT_EQ(synth.size(), by_start.size());

        double prev = -1e300;
        for (std::size_t i = 0; i < synth.size(); ++i) {
            // Monotone synthetic starts within the observed span.
            ASSERT_GE(synth[i], prev - 1e-6);
            prev = synth[i];
            ASSERT_GE(synth[i], by_start.front().start - 1e-6);
            ASSERT_LE(synth[i], by_start.back().start + 1e-6);
            // Metered >= simple, event by event.
            ASSERT_GE(metered[i] + 1e-9, by_start[i].latency());
        }
    }

    // Tiny window: metered == simple.
    const auto tiny = rec.meteredLatencies(1e-9);
    for (std::size_t i = 0; i < tiny.size(); ++i)
        ASSERT_NEAR(tiny[i], by_start[i].latency(), 1e-3);
}

TEST_P(MeteredFuzz, MeteredDominatesSimpleAndLimitsHold)
{
    support::Rng rng(GetParam());
    LatencyRecorder rec;
    double t = 0.0;
    const int n = 500 + static_cast<int>(rng.uniformInt(2000));
    for (int i = 0; i < n; ++i) {
        // Bursty arrivals with occasional long gaps.
        t += rng.uniform() < 0.05 ? rng.exponential(5000.0)
                                  : rng.exponential(100.0);
        rec.record(t, t + rng.exponential(80.0));
    }
    checkMeteredLimits(rec);
}

TEST_P(MeteredFuzz, LaneRunsWithTiedStartsHoldLimits)
{
    // The closed-loop shape: one start-ordered run per lane, every lane
    // starting at the same instant, and coarse-grained service times
    // so starts also tie within and across lanes later on.
    support::Rng rng(GetParam());
    LatencyRecorder rec;
    const int lanes = 2 + static_cast<int>(rng.uniformInt(15));
    for (int lane = 0; lane < lanes; ++lane) {
        double start = 1000.0;
        const int count = 50 + static_cast<int>(rng.uniformInt(200));
        for (int i = 0; i < count; ++i) {
            const double end =
                start + 10.0 * static_cast<double>(1 + rng.uniformInt(8));
            rec.record(start, end);
            start = end;
        }
    }
    checkMeteredLimits(rec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeteredFuzz,
                         ::testing::Values(3, 17, 99, 2024));

TEST(ExportFileTest, ArtifactCsvRoundTrips)
{
    const std::string path = "/tmp/capo_export_test.csv";
    LatencyRecorder rec;
    rec.record(0.0, 5.0);
    rec.record(10.0, 30.0);
    report::ArtifactSink artifacts(".");
    ASSERT_TRUE(artifacts.writeTable(path, latencyTable(rec, 0.0),
                                     report::Format::Csv));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "intended_ns,start_ns,end_ns,intended_lat_ns,simple_ns,metered_ns");
    int rows = 0;
    std::string line;
    while (std::getline(in, line))
        rows += !line.empty();
    EXPECT_EQ(rows, 2);
    std::remove(path.c_str());
}

TEST(ExportFileTest, UnwritablePathIsQuarantined)
{
    // A regular file cannot be a directory, so no write can land.
    report::ArtifactSink artifacts(".");
    EXPECT_FALSE(artifacts.writeTable("/dev/null/file.csv",
                                      latencyTable(LatencyRecorder(), 0.0),
                                      report::Format::Csv));
    const auto lost = artifacts.quarantined();
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_NE(lost[0].error.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace capo::metrics
