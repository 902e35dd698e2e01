/**
 * @file
 * Open-loop load subsystem tests: arrival-generator statistics and
 * determinism, the pacing-policy contracts, and the acceptance
 * properties of the open-loop sweep (bit-identical across --jobs,
 * arrival-stamped tails dominating service-stamped ones, and the
 * adaptive pacer winning at least one load regime).
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gc/pacing.hh"
#include "harness/openloop_experiment.hh"
#include "load/arrival.hh"
#include "load/pacer.hh"
#include "support/rng.hh"
#include "testutil/sinks.hh"
#include "trace/sink.hh"
#include "workloads/registry.hh"

namespace capo {
namespace {

load::ArrivalSpec
poissonSpec(double rate)
{
    load::ArrivalSpec spec;
    spec.kind = load::ArrivalKind::Poisson;
    spec.rate_per_sec = rate;
    return spec;
}

TEST(ArrivalTest, KindNamesRoundTrip)
{
    for (auto kind :
         {load::ArrivalKind::Poisson, load::ArrivalKind::OnOff,
          load::ArrivalKind::Diurnal}) {
        load::ArrivalKind parsed = load::ArrivalKind::Poisson;
        EXPECT_TRUE(load::tryArrivalKindFromName(
            load::arrivalKindName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    load::ArrivalKind parsed;
    EXPECT_FALSE(load::tryArrivalKindFromName("sawtooth", &parsed));
    EXPECT_FALSE(load::tryArrivalKindFromName("", &parsed));
}

TEST(ArrivalTest, PoissonMeanRateWithinConfidenceInterval)
{
    const double rate = 1000.0;
    load::ArrivalGenerator gen(poissonSpec(rate), support::Rng(42));
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double gap = gen.next();
        ASSERT_GT(gap, 0.0);
        sum += gap;
    }
    // Exponential gaps: sd == mean, so the sample mean lies within
    // mean * 5/sqrt(n) of 1/rate essentially always.
    const double mean = sum / n;
    const double expected = 1e9 / rate;
    EXPECT_NEAR(mean, expected, expected * 5.0 / std::sqrt(1.0 * n));
}

TEST(ArrivalTest, OnOffPreservesMeanRateAndBurstOccupancy)
{
    load::ArrivalSpec spec;
    spec.kind = load::ArrivalKind::OnOff;
    spec.rate_per_sec = 1000.0;
    spec.burst_ratio = 4.0;
    spec.burst_duty = 0.3;
    spec.burst_mean_ns = 50e6;
    load::ArrivalGenerator gen(spec, support::Rng(7));

    const int n = 200000;
    double elapsed = 0.0;
    int in_burst = 0;
    for (int i = 0; i < n; ++i) {
        elapsed += gen.next();
        if (gen.inBurst())
            ++in_burst;
    }
    // Long-run mean rate must equal rate_per_sec (the burst knobs
    // redistribute mass, they don't add any).
    EXPECT_NEAR(n / (elapsed / 1e9), spec.rate_per_sec,
                spec.rate_per_sec * 0.05);
    // Per-arrival burst share: duty*ratio / (duty*ratio + 1 - duty),
    // the fraction of arrival mass carried by the on state.
    const double mass_share =
        spec.burst_duty * spec.burst_ratio /
        (spec.burst_duty * spec.burst_ratio + 1.0 - spec.burst_duty);
    EXPECT_NEAR(static_cast<double>(in_burst) / n, mass_share, 0.08);
}

TEST(ArrivalTest, DiurnalPeakBeatsTroughAndKeepsMeanRate)
{
    load::ArrivalSpec spec;
    spec.kind = load::ArrivalKind::Diurnal;
    spec.rate_per_sec = 2000.0;
    spec.diurnal_period_ns = 1e9;
    spec.diurnal_depth = 0.8;
    load::ArrivalGenerator gen(spec, support::Rng(11));

    const int n = 100000;
    double clock = 0.0;
    int quarter_counts[4] = {0, 0, 0, 0};
    for (int i = 0; i < n; ++i) {
        clock += gen.next();
        const double phase =
            std::fmod(clock, spec.diurnal_period_ns) /
            spec.diurnal_period_ns;
        ++quarter_counts[static_cast<int>(phase * 4.0) & 3];
    }
    // sin peaks in the first half-period's middle quarter and bottoms
    // out in the second half's.
    EXPECT_GT(quarter_counts[1], quarter_counts[3] * 2);
    EXPECT_NEAR(n / (clock / 1e9), spec.rate_per_sec,
                spec.rate_per_sec * 0.05);
}

TEST(ArrivalTest, EqualSeedsGiveIdenticalStreams)
{
    for (auto kind :
         {load::ArrivalKind::Poisson, load::ArrivalKind::OnOff,
          load::ArrivalKind::Diurnal}) {
        load::ArrivalSpec spec;
        spec.kind = kind;
        load::ArrivalGenerator a(spec, support::Rng(123));
        load::ArrivalGenerator b(spec, support::Rng(123));
        load::ArrivalGenerator c(spec, support::Rng(124));
        bool differs = false;
        for (int i = 0; i < 1000; ++i) {
            const double ga = a.next();
            EXPECT_EQ(ga, b.next()); // bitwise
            differs = differs || ga != c.next();
        }
        EXPECT_TRUE(differs);
    }
}

TEST(PacingPolicyTest, StaticPolicyClampsFreeFractionRatio)
{
    const auto &policy = gc::StaticPacingPolicy::instance();
    runtime::PacingSignal signal;
    signal.pacing_supported = true;
    signal.cycle_active = true;
    signal.pace_free_threshold = 0.30;
    signal.pace_floor = 0.05;

    signal.free_fraction = 0.15;
    EXPECT_DOUBLE_EQ(policy.mutatorSpeed(signal), 0.5);
    signal.free_fraction = 0.60;
    EXPECT_DOUBLE_EQ(policy.mutatorSpeed(signal), 1.0);
    signal.free_fraction = 0.0;
    EXPECT_DOUBLE_EQ(policy.mutatorSpeed(signal), 0.05);

    // Outside an active cycle — or on a non-pacing collector — the
    // policy must get out of the way entirely.
    signal.cycle_active = false;
    signal.free_fraction = 0.0;
    EXPECT_DOUBLE_EQ(policy.mutatorSpeed(signal), 1.0);
    signal.cycle_active = true;
    signal.pacing_supported = false;
    EXPECT_DOUBLE_EQ(policy.mutatorSpeed(signal), 1.0);
}

TEST(PacingPolicyTest, UtilityRewardsGoodputAndPenalizesLateness)
{
    load::PacerConfig config;
    // Below the latency target: more goodput is strictly better and
    // latency has no effect.
    EXPECT_GT(load::pacingUtility(2000.0, 1e6, config),
              load::pacingUtility(1000.0, 1e6, config));
    EXPECT_EQ(load::pacingUtility(1000.0, 1e6, config),
              load::pacingUtility(1000.0, 19e6, config));
    // Past the target the penalty bites, and harder the later it is.
    EXPECT_GT(load::pacingUtility(1000.0, 19e6, config),
              load::pacingUtility(1000.0, 40e6, config));
    EXPECT_GT(load::pacingUtility(1000.0, 40e6, config),
              load::pacingUtility(1000.0, 80e6, config));
}

harness::OpenLoopSweepOptions
sweepOptions(int jobs)
{
    harness::OpenLoopSweepOptions sweep;
    sweep.load_factors = {0.5, 1.2};
    sweep.modes = {"static", "adaptive"};
    sweep.base.iterations = 2;
    sweep.base.invocations = 1;
    sweep.base.time_limit_sec = 300;
    sweep.base.jobs = jobs;
    return sweep;
}

void
expectCellsIdentical(const harness::OpenLoopCell &a,
                     const harness::OpenLoopCell &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.collector, b.collector);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.load_factor, b.load_factor);
    EXPECT_EQ(a.ok, b.ok);
    // All bitwise, not approximate.
    EXPECT_EQ(a.arrival_p50_ns, b.arrival_p50_ns);
    EXPECT_EQ(a.arrival_p99_ns, b.arrival_p99_ns);
    EXPECT_EQ(a.arrival_p999_ns, b.arrival_p999_ns);
    EXPECT_EQ(a.service_p50_ns, b.service_p50_ns);
    EXPECT_EQ(a.service_p99_ns, b.service_p99_ns);
    EXPECT_EQ(a.service_p999_ns, b.service_p999_ns);
    EXPECT_EQ(a.goodput_rps, b.goodput_rps);
    EXPECT_EQ(a.utility, b.utility);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.mean_pace, b.mean_pace);
    // The digest captures every monitoring-interval decision the
    // adaptive pacer took, bit for bit.
    EXPECT_EQ(a.pacer_digest, b.pacer_digest);
}

TEST(OpenLoopSweepTest, BitIdenticalAcrossJobsAndAcceptanceGaps)
{
    const auto serial =
        harness::runOpenLoopSweep({"lusearch"}, sweepOptions(1));
    const auto parallel =
        harness::runOpenLoopSweep({"lusearch"}, sweepOptions(8));

    ASSERT_EQ(serial.cells.size(), 4u);
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    EXPECT_EQ(serial.dispatches, parallel.dispatches);
    for (std::size_t i = 0; i < serial.cells.size(); ++i)
        expectCellsIdentical(serial.cells[i], parallel.cells[i]);

    double static_util_sat = 0.0;
    double adaptive_util_sat = 0.0;
    bool adaptive_wins_somewhere = false;
    for (const auto &cell : serial.cells) {
        ASSERT_TRUE(cell.ok) << cell.mode << " @ " << cell.load_factor;
        // Coordinated omission: latency measured from arrival can
        // never be shorter than latency measured from service start.
        EXPECT_GE(cell.arrival_p99_ns, cell.service_p99_ns);
        if (cell.mode == "adaptive") {
            EXPECT_FALSE(cell.pacer_digest.empty());
            EXPECT_GT(cell.mean_pace, 0.0);
            EXPECT_LE(cell.mean_pace, 1.0);
        } else {
            EXPECT_TRUE(cell.pacer_digest.empty());
        }
        if (cell.load_factor == 1.2) {
            if (cell.mode == "static")
                static_util_sat = cell.utility;
            if (cell.mode == "adaptive")
                adaptive_util_sat = cell.utility;
        }
    }
    for (double factor : {0.5, 1.2}) {
        double s = 0.0, a = 0.0;
        for (const auto &cell : serial.cells) {
            if (cell.load_factor != factor)
                continue;
            (cell.mode == "static" ? s : a) = cell.utility;
        }
        adaptive_wins_somewhere = adaptive_wins_somewhere || a > s;
    }
    // Under saturating load the arrival-stamped tail must show real
    // queueing on top of the service-stamped view.
    for (const auto &cell : serial.cells) {
        if (cell.load_factor == 1.2) {
            EXPECT_GT(cell.arrival_p99_ns, cell.service_p99_ns);
        }
    }
    // The feedback pacer has to earn its keep in at least one regime.
    EXPECT_TRUE(adaptive_wins_somewhere)
        << "static=" << static_util_sat
        << " adaptive=" << adaptive_util_sat;
}

TEST(OpenLoopSweepTest, TracedSweepIdenticalAcrossJobs)
{
    // Every cell traces into its own shard, so a traced sweep fans
    // out safely and merges to the serial run's sink event for event.
    trace::TraceSink serial_sink, parallel_sink;
    auto serial_options = sweepOptions(1);
    serial_options.modes = {"closed", "static", "adaptive"};
    serial_options.base.trace = &serial_sink;
    auto parallel_options = serial_options;
    parallel_options.base.jobs = 8;
    parallel_options.base.trace = &parallel_sink;

    const auto serial =
        harness::runOpenLoopSweep({"lusearch"}, serial_options);
    const auto parallel =
        harness::runOpenLoopSweep({"lusearch"}, parallel_options);
    ASSERT_EQ(serial.cells.size(), 6u);
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    EXPECT_EQ(serial.dispatches, parallel.dispatches);
    for (std::size_t i = 0; i < serial.cells.size(); ++i)
        expectCellsIdentical(serial.cells[i], parallel.cells[i]);
    EXPECT_GT(serial_sink.eventCount(), 0u);
    testutil::expectSinksIdentical(serial_sink, parallel_sink);
}

} // namespace
} // namespace capo
