/**
 * @file
 * Parallel-replay determinism: any --jobs value must produce results
 * and traces bit-identical to a serial run. These tests are also the
 * ThreadSanitizer smoke target (the CI TSan job runs them).
 */

#include <bit>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/latency_experiment.hh"
#include "harness/lbo_experiment.hh"
#include "harness/minheap.hh"
#include "harness/runner.hh"
#include "metrics/lbo.hh"
#include "testutil/sinks.hh"
#include "trace/chrome_export.hh"
#include "trace/sampler.hh"
#include "trace/sink.hh"
#include "workloads/registry.hh"

namespace capo::harness {
namespace {

using testutil::expectSinksIdentical;

ExperimentOptions
baseOptions(int jobs)
{
    ExperimentOptions options;
    options.iterations = 2;
    options.invocations = 4;
    options.time_limit_sec = 300;
    options.jobs = jobs;
    return options;
}

void
expectRunsIdentical(const runtime::ExecutionResult &a,
                    const runtime::ExecutionResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.wall, b.wall);  // bitwise, not approximate
    EXPECT_EQ(a.cpu, b.cpu);
    EXPECT_EQ(a.mutator_cpu, b.mutator_cpu);
    EXPECT_EQ(a.gc_cpu, b.gc_cpu);
    EXPECT_EQ(a.total_allocated, b.total_allocated);
    EXPECT_EQ(a.collections, b.collections);
    EXPECT_EQ(a.stall_count, b.stall_count);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.timed.wall, b.timed.wall);
    EXPECT_EQ(a.timed.cpu, b.timed.cpu);
    EXPECT_EQ(a.timed.stw_wall, b.timed.stw_wall);
    EXPECT_EQ(a.timed.stw_cpu, b.timed.stw_cpu);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        EXPECT_EQ(a.iterations[i].wall_begin, b.iterations[i].wall_begin);
        EXPECT_EQ(a.iterations[i].wall_end, b.iterations[i].wall_end);
    }
}

TEST(DeterminismTest, InvocationSetBitIdenticalAcrossJobs)
{
    const auto &fop = workloads::byName("fop");
    Runner serial(baseOptions(1));
    Runner parallel(baseOptions(8));
    const auto a = serial.run(fop, gc::Algorithm::G1, 2.0);
    const auto b = parallel.run(fop, gc::Algorithm::G1, 2.0);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i)
        expectRunsIdentical(a.runs[i], b.runs[i]);
}

TEST(DeterminismTest, LboTablesIdenticalAcrossJobsAllCollectors)
{
    // The full production-collector set (all five) over two
    // workloads, exported to the CSV stat table: the serial and 8-way
    // tables must match byte for byte, and so must the suite-level
    // geomean points aggregated from them.
    LboSweepOptions sweep;
    sweep.factors = {2.0, 3.0};
    sweep.collectors = gc::productionCollectors();
    sweep.base = baseOptions(1);
    sweep.base.invocations = 2;
    ASSERT_EQ(sweep.collectors.size(), 5u);

    const auto sweepBoth = [&sweep] {
        std::vector<WorkloadLbo> per_workload;
        for (const char *name : {"fop", "luindex"})
            per_workload.push_back(
                runLboSweep(workloads::byName(name), sweep));
        return per_workload;
    };
    const auto serial = sweepBoth();
    const auto serial_points = aggregateSuiteLbo(serial, sweep);

    sweep.base.jobs = 8;
    const auto parallel = sweepBoth();
    const auto parallel_points = aggregateSuiteLbo(parallel, sweep);

    for (std::size_t w = 0; w < serial.size(); ++w) {
        EXPECT_EQ(serial[w].dispatches, parallel[w].dispatches);
        for (auto algorithm : sweep.collectors) {
            const std::string name = gc::algorithmName(algorithm);
            for (double factor : sweep.factors) {
                EXPECT_EQ(serial[w].completedAt(name, factor),
                          parallel[w].completedAt(name, factor));
            }
        }
        EXPECT_TRUE(metrics::lboTable(serial[w].analysis)
                        .identical(metrics::lboTable(parallel[w].analysis)));
    }

    // Bit patterns, not values: -0.0 vs 0.0 or a NaN payload would be
    // a divergence too.
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    ASSERT_EQ(serial_points.size(), sweep.collectors.size() *
                                        sweep.factors.size());
    ASSERT_EQ(serial_points.size(), parallel_points.size());
    for (std::size_t i = 0; i < serial_points.size(); ++i) {
        const auto &a = serial_points[i];
        const auto &b = parallel_points[i];
        EXPECT_EQ(a.collector, b.collector);
        EXPECT_EQ(bits(a.factor), bits(b.factor));
        EXPECT_EQ(a.plotted, b.plotted);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(bits(a.wall_geomean), bits(b.wall_geomean))
            << a.collector << " @ " << a.factor;
        EXPECT_EQ(bits(a.cpu_geomean), bits(b.cpu_geomean))
            << a.collector << " @ " << a.factor;
    }
}

TEST(DeterminismTest, TracedLboSweepMetricsSummaryIdenticalAcrossJobs)
{
    // runbms' lbo_<w>.csv and metrics.csv for a traced, sampled
    // sweep: both tables must be bitwise identical at j1 and j8.
    LboSweepOptions sweep;
    sweep.factors = {2.0, 4.0};
    sweep.collectors = {gc::Algorithm::Serial, gc::Algorithm::G1};
    sweep.base = baseOptions(1);
    sweep.base.metrics_interval_ms = 10.0;

    const auto tables = [&](int jobs) {
        trace::TraceSink sink;
        sweep.base.jobs = jobs;
        sweep.base.trace = &sink;
        const auto result = runLboSweep(workloads::byName("fop"), sweep);
        sweep.base.trace = nullptr;
        return std::pair{metrics::lboTable(result.analysis),
                         trace::counterSummaryTable(sink)};
    };
    const auto [serial_lbo, serial_metrics] = tables(1);
    const auto [parallel_lbo, parallel_metrics] = tables(8);

    EXPECT_EQ(serial_lbo.rowCount(), 4u);
    EXPECT_TRUE(serial_lbo.identical(parallel_lbo));
    EXPECT_EQ(serial_metrics.rowCount(), 5u);
    EXPECT_TRUE(serial_metrics.identical(parallel_metrics));
}

TEST(DeterminismTest, MinHeapGridIdenticalAcrossJobs)
{
    const std::vector<std::string> workloads = {"fop", "luindex"};
    const std::vector<gc::Algorithm> collectors = {
        gc::Algorithm::Serial, gc::Algorithm::G1};

    auto options = baseOptions(1);
    options.invocations = 1;
    const auto serial =
        findMinHeapGrid(workloads, collectors, options, 0.05);

    options.jobs = 8;
    const auto parallel =
        findMinHeapGrid(workloads, collectors, options, 0.05);

    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].workload, parallel.cells[i].workload);
        EXPECT_EQ(serial.cells[i].result.min_heap_mb,
                  parallel.cells[i].result.min_heap_mb);
        EXPECT_EQ(serial.cells[i].result.probes,
                  parallel.cells[i].result.probes);
        EXPECT_EQ(serial.cells[i].result.converged,
                  parallel.cells[i].result.converged);
    }
}

TEST(DeterminismTest, ParallelTraceIsIdenticalToSerialTrace)
{
    const auto &fop = workloads::byName("fop");

    trace::TraceSink serial_sink, parallel_sink;
    auto serial_options = baseOptions(1);
    serial_options.trace = &serial_sink;
    auto parallel_options = baseOptions(8);
    parallel_options.trace = &parallel_sink;

    Runner(serial_options).run(fop, gc::Algorithm::G1, 2.0);
    Runner(parallel_options).run(fop, gc::Algorithm::G1, 2.0);

    expectSinksIdentical(serial_sink, parallel_sink);
}

TEST(DeterminismTest, WarmPoolsMatchFreshConstruction)
{
    // Dirty-reuse trap for the per-worker pools (arena, world,
    // collector, memoized setup, shard freelist): a cell run on warm
    // pools — right after a *different* cell, and then right after
    // itself — must be bitwise identical to the same cell run with
    // every cache cleared. Results and trace shards both count.
    const auto &fop = workloads::byName("fop");
    const auto &luindex = workloads::byName("luindex");
    auto options = baseOptions(1);
    options.invocations = 2;

    // Fresh-construction baseline for the probed cell.
    clearWorkerCaches();
    trace::TraceSink fresh_sink;
    auto fresh_options = options;
    fresh_options.trace = &fresh_sink;
    const auto fresh =
        Runner(fresh_options).run(luindex, gc::Algorithm::Zgc, 2.0);

    // Dirty the pools with an unrelated cell, then re-run the probed
    // cell twice: the first reuse crosses cells, the second reuses
    // state its own previous run left behind.
    clearWorkerCaches();
    {
        trace::TraceSink scratch_sink;
        auto warm_options = options;
        warm_options.trace = &scratch_sink;
        Runner(warm_options).run(fop, gc::Algorithm::G1, 3.0);
    }
    for (int round = 0; round < 2; ++round) {
        trace::TraceSink warm_sink;
        auto warm_options = options;
        warm_options.trace = &warm_sink;
        const auto warm = Runner(warm_options)
                              .run(luindex, gc::Algorithm::Zgc, 2.0);
        ASSERT_EQ(fresh.runs.size(), warm.runs.size());
        for (std::size_t i = 0; i < fresh.runs.size(); ++i)
            expectRunsIdentical(fresh.runs[i], warm.runs[i]);
        expectSinksIdentical(fresh_sink, warm_sink);
    }

    // And the same cell fanned out on warm pool workers (j8) must
    // still match the fresh serial baseline.
    trace::TraceSink parallel_sink;
    auto parallel_options = baseOptions(8);
    parallel_options.invocations = 2;
    parallel_options.trace = &parallel_sink;
    const auto parallel = Runner(parallel_options)
                              .run(luindex, gc::Algorithm::Zgc, 2.0);
    ASSERT_EQ(fresh.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < fresh.runs.size(); ++i)
        expectRunsIdentical(fresh.runs[i], parallel.runs[i]);
    expectSinksIdentical(fresh_sink, parallel_sink);
    clearWorkerCaches();
}

TEST(DeterminismTest, ParallelTraceExportIsNestedAndMonotonic)
{
    const auto &fop = workloads::byName("fop");
    trace::TraceSink sink;
    auto options = baseOptions(8);
    options.trace = &sink;
    Runner(options).run(fop, gc::Algorithm::G1, 2.0);

    // Harness track: one well-nested span per invocation, laid end to
    // end in invocation order.
    trace::TrackId harness_track = 0;
    bool found = false;
    for (trace::TrackId t = 0; t < sink.trackCount(); ++t) {
        if (sink.trackName(t) == "harness") {
            harness_track = t;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    const auto events = sink.events(harness_track);
    int depth = 0;
    int spans = 0;
    double last_ts = 0.0;
    for (const auto &e : events) {
        EXPECT_GE(e.ts, last_ts) << "harness timeline must be monotonic";
        last_ts = e.ts;
        if (e.kind == trace::EventKind::SpanBegin)
            ++depth;
        if (e.kind == trace::EventKind::SpanEnd) {
            --depth;
            ++spans;
        }
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(spans, options.invocations);

    // Every invocation label appears in order.
    int next_inv = 0;
    for (const auto &e : events) {
        if (e.kind == trace::EventKind::SpanBegin) {
            const std::string label =
                "fop/G1 inv" + std::to_string(next_inv++);
            EXPECT_EQ(std::string(e.name), label);
        }
    }

    // The Chrome exporter (which sorts globally) accepts the merged
    // timeline.
    std::stringstream out;
    EXPECT_GT(trace::writeChromeTrace(sink, out), 0u);
}

void
expectLatencyCellsIdentical(const LatencySweep &a, const LatencySweep &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const auto &x = a.cells[i];
        const auto &y = b.cells[i];
        EXPECT_EQ(x.workload, y.workload);
        EXPECT_EQ(x.collector, y.collector);
        EXPECT_EQ(x.factor, y.factor);
        EXPECT_EQ(x.ok, y.ok);
        EXPECT_EQ(x.have_raw, y.have_raw);
        // All bitwise, not approximate.
        EXPECT_EQ(x.p50_ns, y.p50_ns);
        EXPECT_EQ(x.p99_ns, y.p99_ns);
        EXPECT_EQ(x.p999_ns, y.p999_ns);
        EXPECT_EQ(x.intended_p99_ns, y.intended_p99_ns);
        EXPECT_EQ(x.metered_p50_ns, y.metered_p50_ns);
        EXPECT_EQ(x.metered_p999_ns, y.metered_p999_ns);
        EXPECT_EQ(x.requests.simpleLatencies(),
                  y.requests.simpleLatencies());
        EXPECT_EQ(x.requests.intendedLatencies(),
                  y.requests.intendedLatencies());
    }
}

TEST(DeterminismTest, LatencySweepIdenticalAcrossJobs)
{
    const std::vector<std::string> names = {"lusearch"};
    LatencySweepOptions sweep;
    sweep.factors = {2.0, 6.0};
    sweep.collectors = {gc::Algorithm::G1, gc::Algorithm::Shenandoah};
    sweep.base = baseOptions(1);

    const auto serial = runLatencySweep(names, sweep);
    ASSERT_EQ(serial.cells.size(), 4u);
    for (const auto &cell : serial.cells)
        EXPECT_TRUE(cell.ok) << cell.collector << " @ " << cell.factor;
    sweep.base.jobs = 8;
    expectLatencyCellsIdentical(serial, runLatencySweep(names, sweep));

    // Traced: every cell traces into its own shard, merged in grid
    // order under one harness span per cell.
    trace::TraceSink serial_sink, parallel_sink;
    sweep.base.jobs = 1;
    sweep.base.trace = &serial_sink;
    expectLatencyCellsIdentical(serial, runLatencySweep(names, sweep));
    sweep.base.jobs = 8;
    sweep.base.trace = &parallel_sink;
    expectLatencyCellsIdentical(serial, runLatencySweep(names, sweep));
    expectSinksIdentical(serial_sink, parallel_sink);

    std::size_t cell_spans = 0;
    for (trace::TrackId t = 0; t < serial_sink.trackCount(); ++t) {
        if (serial_sink.trackName(t) != "harness")
            continue;
        for (const auto &e : serial_sink.events(t)) {
            if (e.kind == trace::EventKind::SpanBegin &&
                std::strncmp(e.name, "latency ", 8) == 0) {
                ++cell_spans;
            }
        }
    }
    EXPECT_EQ(cell_spans, serial.cells.size());
}

} // namespace
} // namespace capo::harness
