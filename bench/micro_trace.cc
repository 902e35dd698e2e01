/**
 * @file
 * Microbenchmarks of the tracing hot paths (google-benchmark). The
 * whole design rests on instrumentation being cheap enough to leave
 * compiled in: an enabled span costs a ring-buffer store, an event in
 * a disabled category costs one branch on the category mask, and a
 * null sink costs one pointer test at the call site.
 */

#include <benchmark/benchmark.h>

#include "trace/hot_metrics.hh"
#include "trace/sink.hh"

namespace {

using namespace capo;

/** Full cost of an enabled begin/end span pair. */
void
BM_TraceSpanEnabled(benchmark::State &state)
{
    trace::TraceSink sink;
    const auto track = sink.registerTrack("bench");
    const char *name = sink.internName("work");
    double t = 0.0;
    for (auto _ : state) {
        sink.beginSpan(track, trace::Category::Sim, name, t);
        sink.endSpan(track, trace::Category::Sim, name, t + 1.0);
        t += 2.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TraceSpanEnabled);

/** An event whose category is filtered out: must be ~one branch. */
void
BM_TraceEmitFiltered(benchmark::State &state)
{
    trace::TraceSink::Options options;
    options.categories = static_cast<trace::CategoryMask>(
        trace::Category::Gc);
    trace::TraceSink sink(options);
    const auto track = sink.registerTrack("bench");
    const char *name = sink.internName("work");
    double t = 0.0;
    for (auto _ : state) {
        // Sim is not in the mask; wants() fails before any store.
        sink.instant(track, trace::Category::Sim, name, t);
        t += 1.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitFiltered);

/** The disabled-tracing pattern instrumented code uses: null sink,
 *  one pointer test. */
void
BM_TraceDisabledNullSink(benchmark::State &state)
{
    trace::TraceSink *sink = nullptr;
    benchmark::DoNotOptimize(sink);
    double t = 0.0;
    for (auto _ : state) {
        if (sink)
            sink->instant(0, trace::Category::Sim, "work", t);
        t += 1.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceDisabledNullSink);

/** Counter emission (the sampler's per-probe cost). */
void
BM_TraceCounter(benchmark::State &state)
{
    trace::TraceSink sink;
    const auto track = sink.registerTrack("counters");
    const char *name = sink.internName("heap.occupied_bytes");
    double t = 0.0;
    for (auto _ : state) {
        sink.counter(track, trace::Category::Metrics, name, t, t * 2.0);
        t += 1.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceCounter);

/** One sampler tick: a counter per probe across the sampler's five
 *  probe names, each also folded into its name's running summary (a
 *  linear scan over the summaries). */
void
BM_TraceSamplerTick(benchmark::State &state)
{
    trace::TraceSink sink;
    const auto track = sink.registerTrack("counters");
    const char *names[] = {
        sink.internName("heap.occupied_bytes"),
        sink.internName("heap.live_bytes"),
        sink.internName("heap.fresh_bytes"),
        sink.internName("agents.runnable"),
        sink.internName("gc.cpu_ns"),
    };
    double t = 0.0;
    for (auto _ : state) {
        for (const char *name : names)
            sink.counter(track, trace::Category::Metrics, name, t, t);
        t += 1.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_TraceSamplerTick);

/** Disabled hot-tier observe: one relaxed load and a branch — the
 *  price every hot-path probe pays when nobody is measuring. This is
 *  the number the recorder stores as hot_disabled_ns in every
 *  committed BENCH snapshot. */
void
BM_HotObserveDisabled(benchmark::State &state)
{
    trace::hot::setEnabled(false);
    double value = 1.0;
    for (auto _ : state) {
        trace::hot::observe(trace::hot::TimerQueueDepth, value);
        value = value < 4096.0 ? value + 1.0 : 1.0;
        benchmark::DoNotOptimize(value);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotObserveDisabled);

/** Enabled hot-tier observe: a bounded constexpr-bound scan plus
 *  three relaxed fetch_adds; no mutex, no CAS loop. */
void
BM_HotObserveEnabled(benchmark::State &state)
{
    trace::hot::setEnabled(true);
    double value = 1.0;
    for (auto _ : state) {
        trace::hot::observe(trace::hot::TimerQueueDepth, value);
        value = value < 4096.0 ? value + 1.0 : 1.0;
        benchmark::DoNotOptimize(value);
    }
    trace::hot::setEnabled(false);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotObserveEnabled);

/** Disabled hot-tier counter bump (the batched flush path's unit). */
void
BM_HotCounterDisabled(benchmark::State &state)
{
    trace::hot::setEnabled(false);
    for (auto _ : state) {
        trace::hot::count(trace::hot::SimEvents, 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotCounterDisabled);

/** Enabled hot-tier observe under contention: all benchmark threads
 *  hammer the same histogram (run with --benchmark_threads). */
void
BM_HotObserveEnabledContended(benchmark::State &state)
{
    trace::hot::setEnabled(true);
    double value = static_cast<double>(state.thread_index() + 1);
    for (auto _ : state) {
        trace::hot::observe(trace::hot::PoolStealScan, value);
        value = value < 64.0 ? value + 1.0 : 1.0;
        benchmark::DoNotOptimize(value);
    }
    if (state.thread_index() == 0)
        trace::hot::setEnabled(false);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotObserveEnabledContended)->Threads(1)->Threads(4);

} // namespace

BENCHMARK_MAIN();
