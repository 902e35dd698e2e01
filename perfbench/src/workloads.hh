/**
 * @file
 * The benchmark's three workloads. Each runs one pass through the same
 * public entry points the registered experiments use, then renders and
 * writes its result tables through report::ArtifactSink.
 *
 *  - lbo_sweep: fig01's path. runLboSweep per suite workload at jobs 2,
 *    aggregateSuiteLbo, the suite_lbo table. Simulation dominates.
 *  - pause_mmu: fig02/fig03's composition. Traced Runner::run per
 *    (workload, collector, heap), then MMU over a dense window ladder,
 *    request synthesis, metered latency and percentile curves. The
 *    metrics layer dominates.
 *  - openloop: runOpenLoopSweep per (workload, collector, mode). The
 *    load layer runs inside the simulation.
 *
 * Every call into a capo layer is wrapped in a span named after the
 * src/ module it enters. Calls into the harness also take hot-tier
 * snapshot deltas (the hot tier records only in a traced pass).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gc/factory.hh"
#include "harness/runner.hh"
#include "output.hh"
#include "spans.hh"
#include "trace/hot_metrics.hh"

namespace perfbench {

/** What one workload runs: its grid and the harness options. */
struct Plan
{
    std::string workload;
    std::vector<std::string> programs;       ///< Simulated workloads.
    std::vector<capo::gc::Algorithm> collectors;
    std::vector<double> factors;             ///< Heap or load factors.
    std::vector<std::string> modes;          ///< openloop only.
    capo::harness::ExperimentOptions options;
};

/** The names run.py accepts, in the order --all runs them. */
const std::vector<std::string> &workloadNames();

/** The plan of @p workload; @p reduced shrinks every axis for tests. */
Plan makePlan(const std::string &workload, std::uint64_t seed,
              bool reduced);

/** The state of one pass. */
struct Pass
{
    Pass(const Plan &plan, SpanRecorder &spans, Output &out)
        : plan(plan), spans(spans), out(out)
    {
    }

    const Plan &plan;
    SpanRecorder &spans;
    Output &out;

    /** @{ Host stamps of the pass window: first harness call to the
     *  last artifact byte. */
    double first_call_mono = 0.0;
    double first_call_cpu = 0.0;
    double end_mono = 0.0;
    double end_cpu = 0.0;
    /** @} */

    std::uint64_t dispatches = 0;  ///< Summed ExecutionResult events.
    std::uint64_t cells = 0;       ///< Harness grid cells run.
    std::uint64_t cells_dnf = 0;   ///< Of those, simulated DNFs.

    /** Hot-tier deltas summed over every harness call. */
    capo::trace::hot::Snapshot hot;
    bool hot_seen = false;

    /** Layer counts and times the workload measures itself, by
     *  per-layer metric name. */
    std::map<std::string, double> layer;

    /** Wrap one harness call: span, hot-tier delta, pass start. */
    template <typename Call>
    auto
    harness(const std::string &name, Call &&call)
    {
        if (first_call_mono == 0.0) {
            first_call_mono = monoNow();
            first_call_cpu = cpuNow();
        }
        const bool hot = capo::trace::hot::enabled();
        const auto before = hot ? capo::trace::hot::snapshot()
                                : capo::trace::hot::Snapshot{};
        Scope scope(spans, name);
        auto result = call();
        last_call_s = scope.close();
        if (hot)
            addHot(capo::trace::hot::snapshot().since(before));
        return result;
    }

    double last_call_s = 0.0;  ///< Host seconds of the latest call.

  private:
    void addHot(const capo::trace::hot::Snapshot &delta);
};

/** The set-up the harness needs before its first call: workload
 *  set-ups, collectors and the shared pool. Spanned per layer. */
void setUp(const Plan &plan, SpanRecorder &spans);

/** Run one pass of plan.workload, writing artifacts under @p out_dir. */
void runPass(Pass &pass, const std::string &out_dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
