/**
 * @file
 * Fault-injection tests: the injector's determinism contract (same
 * seed, same schedule — at any --jobs), rate calibration, spec
 * parsing, quarantine bookkeeping, retry salting and worker death in
 * the exec pool.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "exec/parallel_for.hh"
#include "exec/pool.hh"
#include "fault/fault.hh"
#include "harness/lbo_experiment.hh"
#include "harness/runner.hh"
#include "metrics/lbo.hh"
#include "report/artifact.hh"
#include "trace/hot_metrics.hh"
#include "workloads/registry.hh"

namespace capo::fault {
namespace {

FaultPlan
allSites(double rate)
{
    FaultPlan plan;
    plan.rates.fill(rate);
    return plan;
}

std::vector<InjectedFault>
schedule(const FaultPlan &plan, std::uint64_t cell_seed, int attempt,
         int opportunities)
{
    FaultInjector injector(plan, cell_seed, attempt);
    for (int i = 0; i < opportunities; ++i) {
        for (std::size_t s = 0; s < kSiteCount; ++s)
            injector.fire(static_cast<Site>(s), i * 100.0);
    }
    return injector.injected();
}

TEST(FaultInjectorTest, SameSeedReplaysIdentically)
{
    const auto plan = allSites(0.05);
    const auto a = schedule(plan, 42, 0, 2000);
    const auto b = schedule(plan, 42, 0, 2000);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 0u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].site, b[i].site);
        EXPECT_EQ(a[i].sequence, b[i].sequence);
        EXPECT_EQ(a[i].sim_time_ns, b[i].sim_time_ns);
    }
}

TEST(FaultInjectorTest, CellSeedAndAttemptSaltTheStream)
{
    const auto plan = allSites(0.05);
    const auto base = schedule(plan, 42, 0, 2000);
    const auto other_cell = schedule(plan, 43, 0, 2000);
    const auto other_attempt = schedule(plan, 42, 1, 2000);

    const auto differs = [&](const std::vector<InjectedFault> &other) {
        if (other.size() != base.size())
            return true;
        for (std::size_t i = 0; i < base.size(); ++i) {
            if (base[i].site != other[i].site ||
                base[i].sequence != other[i].sequence)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(differs(other_cell));
    EXPECT_TRUE(differs(other_attempt));
}

TEST(FaultInjectorTest, DisarmedSitesDoNotShiftArmedSchedules)
{
    // Per-site streams are independent: arming gc must not move a
    // single alloc-oom decision.
    FaultPlan alloc_only;
    alloc_only.setRate(Site::AllocOom, 0.03);
    FaultPlan both = alloc_only;
    both.setRate(Site::GcPhaseAbort, 0.5);

    FaultInjector a(alloc_only, 7, 0);
    FaultInjector b(both, 7, 0);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(a.fire(Site::AllocOom, i),
                  b.fire(Site::AllocOom, i));
        b.fire(Site::GcPhaseAbort, i);  // interleaved consultation
    }
}

TEST(FaultInjectorTest, FiringRateTracksConfiguredRate)
{
    FaultPlan plan;
    plan.setRate(Site::AllocOom, 0.02);
    FaultInjector injector(plan, 99, 0);
    const int n = 200000;
    int fired = 0;
    for (int i = 0; i < n; ++i)
        fired += injector.fire(Site::AllocOom, 0.0) ? 1 : 0;
    EXPECT_EQ(injector.opportunities(Site::AllocOom),
              static_cast<std::uint64_t>(n));
    // 5-sigma band around the binomial mean.
    const double mean = n * 0.02;
    const double sigma = std::sqrt(n * 0.02 * 0.98);
    EXPECT_NEAR(fired, mean, 5.0 * sigma);
}

TEST(FaultInjectorTest, TimerJitterBoundedAndDeterministic)
{
    FaultPlan plan;
    plan.setRate(Site::TimerPerturb, 1.0);
    plan.timer_jitter_ns = 1000.0;
    FaultInjector a(plan, 5, 0);
    FaultInjector b(plan, 5, 0);
    bool any_nonzero = false;
    for (int i = 0; i < 1000; ++i) {
        const double ja = a.timerJitter(0.0);
        EXPECT_EQ(ja, b.timerJitter(0.0));
        EXPECT_LE(std::abs(ja), 1000.0);
        any_nonzero = any_nonzero || ja != 0.0;
    }
    EXPECT_TRUE(any_nonzero);
}

TEST(FaultSpecTest, ParsesAllForms)
{
    FaultPlan plan;
    std::string error;

    EXPECT_TRUE(parseFaultSpec("0.25", plan, error));
    for (std::size_t s = 0; s < kSiteCount; ++s)
        EXPECT_DOUBLE_EQ(plan.rates[s], 0.25);

    EXPECT_TRUE(parseFaultSpec("alloc=0.01, gc = 0.005", plan, error));
    EXPECT_DOUBLE_EQ(plan.rate(Site::AllocOom), 0.01);
    EXPECT_DOUBLE_EQ(plan.rate(Site::GcPhaseAbort), 0.005);
    EXPECT_DOUBLE_EQ(plan.rate(Site::WorkerDeath), 0.0);

    EXPECT_TRUE(parseFaultSpec("none", plan, error));
    EXPECT_FALSE(plan.enabled());
    EXPECT_TRUE(parseFaultSpec("", plan, error));
    EXPECT_FALSE(plan.enabled());

    EXPECT_FALSE(parseFaultSpec("alloc=2.0", plan, error));
    EXPECT_NE(error.find("rate"), std::string::npos);
    EXPECT_FALSE(parseFaultSpec("frobnicator=0.1", plan, error));
    EXPECT_FALSE(parseFaultSpec("alloc", plan, error));
    EXPECT_FALSE(parseFaultSpec("0.1x", plan, error));
}

TEST(FaultSpecTest, ArtifactSiteParsesUnderBothNames)
{
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(parseFaultSpec("artifact=0.1", plan, error));
    EXPECT_DOUBLE_EQ(plan.rate(Site::ArtifactIo), 0.1);
    EXPECT_DOUBLE_EQ(plan.rate(Site::AllocOom), 0.0);
    EXPECT_TRUE(parseFaultSpec("artifact-io=0.2", plan, error));
    EXPECT_DOUBLE_EQ(plan.rate(Site::ArtifactIo), 0.2);
    EXPECT_STREQ(siteName(Site::ArtifactIo), "artifact-io");
}

// ---------------------------------------------------------------------
// The artifact_io site through the report layer's ArtifactSink: writes
// retry on injected failures, quarantine when exhausted, and the whole
// schedule replays from the seed.

TEST(ArtifactFaultTest, InjectedWriteFailuresRetryThenQuarantine)
{
    FaultPlan plan;
    plan.setRate(Site::ArtifactIo, 0.4);
    plan.seed = 17;

    const auto run = [&plan] {
        report::ArtifactSink sink(".",
                                  report::ArtifactSink::Mode::Memory);
        sink.armFaults(plan, 99);
        sink.setRetries(1);
        std::vector<std::pair<int, bool>> outcomes;
        for (int i = 0; i < 32; ++i) {
            const std::string path =
                "table_" + std::to_string(i) + ".csv";
            const bool ok = sink.write(
                path, [&](std::ostream &out) { out << i << "\n"; });
            outcomes.emplace_back(sink.artifacts().back().attempts,
                                  ok);
            // A landed artifact is readable; a quarantined one left
            // nothing behind.
            EXPECT_EQ(sink.payload(path),
                      ok ? std::to_string(i) + "\n" : "");
        }
        return outcomes;
    };

    const auto first = run();
    // At rate 0.4 with two opportunities per attempt and one retry,
    // 32 writes must see all three outcomes: clean first attempts,
    // successful retries, and quarantines.
    bool clean = false, retried = false, quarantined = false;
    for (const auto &[attempts, ok] : first) {
        clean |= ok && attempts == 1;
        retried |= ok && attempts > 1;
        quarantined |= !ok;
    }
    EXPECT_TRUE(clean);
    EXPECT_TRUE(retried);
    EXPECT_TRUE(quarantined);

    // Determinism: the exact same schedule replays from the seed.
    EXPECT_EQ(run(), first);
}

// ---------------------------------------------------------------------
// Whole-stack behaviour through the harness.

harness::ExperimentOptions
faultyOptions(int jobs)
{
    harness::ExperimentOptions options;
    options.iterations = 2;
    options.invocations = 2;
    options.time_limit_sec = 300;
    options.jobs = jobs;
    options.faults.setRate(Site::AllocOom, 2e-4);
    options.faults.setRate(Site::AllocStall, 1e-3);
    options.faults.setRate(Site::TimerPerturb, 0.05);
    options.faults.seed = 11;
    return options;
}

void
expectErrorsIdentical(const std::vector<harness::CellError> &a,
                      const std::vector<harness::CellError> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].collector, b[i].collector);
        EXPECT_EQ(a[i].heap_factor, b[i].heap_factor);
        EXPECT_EQ(a[i].invocation, b[i].invocation);
        EXPECT_EQ(a[i].attempts, b[i].attempts);
        EXPECT_EQ(a[i].kind, b[i].kind);
    }
}

TEST(FaultSweepTest, FaultySweepIsBitIdenticalAcrossJobs)
{
    harness::LboSweepOptions sweep;
    sweep.factors = {2.0, 3.0};
    sweep.collectors = {gc::Algorithm::Serial, gc::Algorithm::G1};
    sweep.base = faultyOptions(1);

    const auto &fop = workloads::byName("fop");
    const auto serial = runLboSweep(fop, sweep);

    sweep.base.jobs = 8;
    const auto parallel = runLboSweep(fop, sweep);

    // The fault schedule — and therefore which cells fail — is a pure
    // function of cell coordinates, never of scheduling.
    expectErrorsIdentical(serial.errors, parallel.errors);
    EXPECT_EQ(serial.dispatches, parallel.dispatches);
    EXPECT_TRUE(metrics::lboTable(serial.analysis)
                    .identical(metrics::lboTable(parallel.analysis)));
}

TEST(FaultSweepTest, FailuresAreQuarantinedNotFatal)
{
    // An aggressive OOM rate: runs fail, the sweep still returns and
    // reports each failure as a typed CellError.
    harness::LboSweepOptions sweep;
    sweep.factors = {2.0};
    sweep.collectors = {gc::Algorithm::G1};
    sweep.base = faultyOptions(1);
    sweep.base.faults.setRate(Site::AllocOom, 0.05);

    const auto &fop = workloads::byName("fop");
    const auto result = runLboSweep(fop, sweep);
    ASSERT_FALSE(result.errors.empty());
    for (const auto &e : result.errors) {
        EXPECT_EQ(e.workload, "fop");
        EXPECT_EQ(e.collector, "G1");
        EXPECT_EQ(e.heap_factor, 2.0);
        EXPECT_GE(e.invocation, 0);
        EXPECT_TRUE(e.kind == "oom" || e.kind == "timeout" ||
                    e.kind == "failed")
            << e.kind;
    }
    EXPECT_FALSE(result.completedAt("G1", 2.0));
}

TEST(FaultRetryTest, RetriesSaltTheScheduleAndAreRecorded)
{
    // Find a rate where attempt 0 fails for some invocations and
    // passes for others, then check retries clear transient failures.
    const auto &fop = workloads::byName("fop");
    auto options = faultyOptions(1);
    options.faults.rates.fill(0.0);

    double rate = 0.0;
    std::vector<int> failing;
    for (double candidate : {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3}) {
        options.faults.setRate(Site::AllocOom, candidate);
        harness::Runner probe(options);
        std::vector<int> failed;
        for (int inv = 0; inv < 8; ++inv) {
            const auto run = probe.runOnce(fop, gc::Algorithm::G1,
                                           fop.gc.gmd_mb * 2.0, inv);
            if (!run.usable())
                failed.push_back(inv);
        }
        if (failed.size() >= 2 && failed.size() <= 6) {
            rate = candidate;
            failing = failed;
            break;
        }
    }
    ASSERT_GT(rate, 0.0) << "no candidate rate gave mixed outcomes";

    options.faults.setRate(Site::AllocOom, rate);
    options.retries = 4;
    harness::Runner runner(options);
    int cleared = 0;
    for (int inv : failing) {
        const auto run = runner.runOnce(fop, gc::Algorithm::G1,
                                        fop.gc.gmd_mb * 2.0, inv);
        if (run.usable()) {
            // A retry succeeded where attempt 0 failed: the attempt
            // salt produced a fresh schedule.
            EXPECT_GT(run.attempts, 1);
            ++cleared;
        } else {
            EXPECT_EQ(run.attempts, 5);
        }
    }
    EXPECT_GT(cleared, 0);
}

TEST(FaultCountersTest, HotCountersMatchEachInvocationsFaults)
{
    const auto &fop = workloads::byName("fop");
    auto options = faultyOptions(1);
    options.faults.setRate(Site::GcPhaseAbort, 0.01);
    harness::Runner runner(options);

    // Each site's counter, found by its dotted name.
    std::array<trace::hot::Counter, kSiteCount> counters{};
    for (std::size_t s = 0; s < kSiteCount; ++s) {
        const std::string name = std::string("fault.injected.") +
                                 siteName(static_cast<Site>(s));
        std::size_t c = 0;
        while (c < trace::hot::kCounterCount &&
               name != trace::hot::counterName(
                           static_cast<trace::hot::Counter>(c)))
            ++c;
        ASSERT_LT(c, trace::hot::kCounterCount) << name;
        counters[s] = static_cast<trace::hot::Counter>(c);
    }
    trace::hot::setEnabled(true);
    std::size_t injected = 0;
    for (int inv = 0; inv < 3; ++inv) {
        const auto before = trace::hot::snapshot();
        const auto run = runner.runOnce(fop, gc::Algorithm::G1,
                                        fop.gc.gmd_mb * 2.0, inv);
        const auto delta = trace::hot::snapshot().since(before);
        std::array<std::uint64_t, kSiteCount> per_site{};
        for (const auto &fault : run.faults)
            ++per_site[static_cast<std::size_t>(fault.site)];
        for (std::size_t s = 0; s < kSiteCount; ++s) {
            EXPECT_EQ(delta.counter(counters[s]), per_site[s])
                << siteName(static_cast<Site>(s)) << " invocation "
                << inv;
        }
        injected += run.faults.size();
    }
    trace::hot::setEnabled(false);
    EXPECT_GT(injected, 0u);
}

TEST(FaultRetryTest, RetriesAreSkippedWithoutFaults)
{
    // Deterministic re-execution re-fails identically; the runner must
    // not waste attempts when no faults are armed.
    const auto &fop = workloads::byName("fop");
    harness::ExperimentOptions options;
    options.iterations = 2;
    options.retries = 3;
    options.time_limit_sec = 300;
    harness::Runner runner(options);
    // A heap far below GMD fails genuinely.
    const auto run =
        runner.runOnce(fop, gc::Algorithm::G1, fop.gc.gmd_mb * 0.1, 0);
    EXPECT_FALSE(run.usable());
    EXPECT_EQ(run.attempts, 1);
}

// ---------------------------------------------------------------------
// Worker death in the exec pool.

TEST(PoolFaultTest, WorkerDeathNeverLosesResults)
{
    exec::Pool pool(3);
    FaultPlan plan;
    plan.setRate(Site::WorkerDeath, 1.0);  // die after every task
    pool.armWorkerDeath(plan);

    for (int round = 0; round < 3; ++round) {
        std::vector<int> out(64, -1);
        exec::parallel_for(pool, out.size(), [&](std::size_t i) {
            out[i] = static_cast<int>(i * i);
        });
        // Help-first joins complete even as workers die around them,
        // and index-keyed slots make the results order-independent.
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
    EXPECT_LE(pool.deadWorkers(), 3u);
}

TEST(PoolFaultTest, SweepSurvivesWorkerDeath)
{
    // End to end: a dedicated dying pool is not available through the
    // harness (it uses the shared pool), so approximate with a direct
    // fork-join running real simulations.
    exec::Pool pool(2);
    FaultPlan plan;
    plan.setRate(Site::WorkerDeath, 0.5);
    pool.armWorkerDeath(plan);

    const auto &fop = workloads::byName("fop");
    harness::ExperimentOptions options;
    options.iterations = 2;
    options.time_limit_sec = 300;
    harness::Runner runner(options);

    std::vector<double> walls(6, 0.0);
    exec::parallel_for(pool, walls.size(), [&](std::size_t i) {
        const auto run =
            runner.runOnce(fop, gc::Algorithm::Serial,
                           fop.gc.gmd_mb * 2.0, static_cast<int>(i));
        walls[i] = run.timed.wall;
    });
    for (double w : walls)
        EXPECT_GT(w, 0.0);

    // Same cells serially: bit-identical despite the dying pool.
    for (std::size_t i = 0; i < walls.size(); ++i) {
        const auto run =
            runner.runOnce(fop, gc::Algorithm::Serial,
                           fop.gc.gmd_mb * 2.0, static_cast<int>(i));
        EXPECT_EQ(run.timed.wall, walls[i]);
    }
}

} // namespace
} // namespace capo::fault
