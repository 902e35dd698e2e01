/**
 * @file
 * Experiment runner: DaCapo/running-ng style invocation management.
 *
 * The paper's methodology (Section 6.1): run n iterations per
 * invocation timing the last, repeat for several invocations, report
 * means with 95 % confidence intervals, and express heap sizes as
 * multiples of each benchmark's nominal minimum heap (GMD).
 */

#ifndef CAPO_HARNESS_RUNNER_HH
#define CAPO_HARNESS_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "counters/machine.hh"
#include "fault/fault.hh"
#include "gc/factory.hh"
#include "metrics/lbo.hh"
#include "metrics/summary.hh"
#include "runtime/execution.hh"
#include "workloads/plans.hh"
#include "workloads/registry.hh"

namespace capo::harness {

/** Options shared by every experiment. */
struct ExperimentOptions
{
    int iterations = 5;    ///< DaCapo -n (time the last).
    int invocations = 5;   ///< Repeats for confidence intervals.
    counters::MachineConfig machine;
    workloads::SizeConfig size = workloads::SizeConfig::Default;
    std::uint64_t base_seed = 0x5eed;
    bool trace_rate = false;       ///< Needed for latency synthesis.
    double time_limit_sec = 2000;  ///< Per-invocation sim-time cap.

    /**
     * Parallelism for invocations and sweep cells: 1 runs serially on
     * the calling thread (the default), 0 uses every hardware thread,
     * N >= 2 caps the fan-out at N. Every invocation's seed is a pure
     * function of its cell coordinates (exec/seed.hh) and results
     * land in pre-sized slots by index, so any jobs value produces
     * bit-identical results.
     */
    int jobs = 1;

    /** @{ Observability (null disables). Every invocation appears as
     *  an "invocation" span on the sink's "harness" track; each engine
     *  starts at t=0, so the runner advances the sink's time base
     *  between invocations to keep one monotonic timeline. */
    trace::TraceSink *trace = nullptr;
    double metrics_interval_ms = 10.0;  ///< Sampling period (sim-ms).
    /** @} */

    /** @{ Resilience. When @c faults has any nonzero rate, every
     *  invocation runs under a deterministic fault injector (see
     *  fault/fault.hh) and a failed invocation is retried up to
     *  @c retries extra attempts — each attempt salts the fault
     *  stream, so transient injected failures clear while genuine
     *  failures (heap too small) fail every attempt. Retries are
     *  skipped when faults are disabled: a deterministic simulation
     *  re-fails identically, so re-running it would be pure waste.
     *  @c retry_backoff_ms spaces attempts in real time (attempt
     *  index × backoff); it never affects simulated results. */
    fault::FaultPlan faults;
    int retries = 0;
    double retry_backoff_ms = 0.0;
    /** @} */
};

/**
 * A quarantined experiment cell: the invocation failed (after any
 * retries), the sweep recorded why and moved on. Sweeps with fault
 * injection report these instead of aborting.
 */
struct CellError
{
    std::string workload;
    std::string collector;
    double heap_factor = 0.0;  ///< 0 when the cell is heap-mb keyed.
    double heap_mb = 0.0;      ///< 0 when the cell is factor keyed.
    int invocation = -1;
    int attempts = 1;          ///< Attempts consumed (all failed).
    std::string kind;          ///< "oom", "timeout" or "failed".
};

/** Classify a failed run for CellError::kind. */
std::string errorKind(const runtime::ExecutionResult &result);

/**
 * Test hook: drop every per-worker cache on the calling thread (the
 * pooled collectors, the memoized setups, the worker context's arena
 * and world) plus the process-wide shard pool, so the next invocation
 * constructs everything fresh. The dirty-reuse determinism tests
 * compare warm-pool runs against the fresh baseline this creates.
 */
void clearWorkerCaches();

/** Results of all invocations of one configuration. */
struct InvocationSet
{
    std::vector<runtime::ExecutionResult> runs;

    /** Did every invocation complete (no OOM/timeout)? */
    bool allCompleted() const;

    /** Mean timed-iteration costs over completed runs (LBO input). */
    metrics::RunCost meanTimedCost() const;

    /** Timed-iteration wall times of completed runs. */
    std::vector<double> timedWalls() const;

    /** Timed-iteration task clocks of completed runs. */
    std::vector<double> timedCpus() const;
};

/**
 * Runs workload/collector/heap configurations.
 */
class Runner
{
  public:
    explicit Runner(const ExperimentOptions &options);

    /**
     * Run all invocations of one configuration.
     *
     * @param heap_factor -Xmx as a multiple of the workload's nominal
     *        minimum heap for the chosen size configuration (paper
     *        recommendation H2).
     */
    InvocationSet run(const workloads::Descriptor &workload,
                      gc::Algorithm algorithm, double heap_factor) const;

    /** Run with an explicit -Xmx in MB. */
    InvocationSet runAtHeapMb(const workloads::Descriptor &workload,
                              gc::Algorithm algorithm,
                              double heap_mb) const;

    /**
     * Single invocation with an explicit heap and invocation index.
     * @p load optionally attaches an open-loop traffic generator
     * (src/load); the caller owns it, reads its results afterwards,
     * and must not share one instance across concurrent cells.
     */
    runtime::ExecutionResult
    runOnce(const workloads::Descriptor &workload,
            gc::Algorithm algorithm, double heap_mb, int invocation,
            runtime::LoadGenerator *load = nullptr) const;

    const ExperimentOptions &options() const { return options_; }

  private:
    /** Run one invocation, emitting trace events (if any) into
     *  @p shard — never into the shared sink (thread safety). */
    runtime::ExecutionResult
    executeInvocation(const workloads::Descriptor &workload,
                      gc::Algorithm algorithm, double heap_mb,
                      int invocation, int attempt,
                      trace::TraceSink *shard,
                      runtime::LoadGenerator *load) const;

    /** executeInvocation plus the retry loop. Each attempt traces
     *  into a fresh shard (@p shard holds the final attempt's). */
    runtime::ExecutionResult
    runWithRetry(const workloads::Descriptor &workload,
                 gc::Algorithm algorithm, double heap_mb,
                 int invocation, std::unique_ptr<trace::TraceSink> &shard,
                 runtime::LoadGenerator *load) const;

    /** Merge one finished invocation's shard onto the shared sink:
     *  wrap it in a harness-track span at the current time base, then
     *  advance the base past it. Caller must serialize calls in
     *  invocation order (the fork-join owner does). */
    void mergeInvocation(const workloads::Descriptor &workload,
                         gc::Algorithm algorithm, int invocation,
                         const runtime::ExecutionResult &result,
                         const trace::TraceSink &shard) const;

    ExperimentOptions options_;
};

} // namespace capo::harness

#endif // CAPO_HARNESS_RUNNER_HH
