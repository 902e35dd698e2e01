/**
 * @file
 * Latency sweep experiments: the machinery behind runbms latency
 * plans (and the per-request percentile tables of Figures 3 and 6).
 *
 * Each (workload, collector, heap-factor) cell runs one traced
 * invocation, synthesizes the request log, and summarises it as five
 * quantiles. Cells run on the sweep kernel (harness/sweep.hh): they
 * fan out across base.jobs and, with a checkpoint journal attached,
 * journal their quantiles under DESIGN.md §8's key scheme
 * (latency/<workload>/<collector>/<factor-bits>). Quantiles are stored
 * as exact bit patterns, so a resumed plan's tables are byte-identical
 * to an uninterrupted run.
 */

#ifndef CAPO_HARNESS_LATENCY_EXPERIMENT_HH
#define CAPO_HARNESS_LATENCY_EXPERIMENT_HH

#include <string>
#include <vector>

#include "gc/factory.hh"
#include "harness/checkpoint.hh"
#include "harness/runner.hh"
#include "metrics/request_synth.hh"

namespace capo::harness {

/** Parameters of a latency sweep. */
struct LatencySweepOptions
{
    std::vector<double> factors = {2.0, 6.0};
    std::vector<gc::Algorithm> collectors =
        gc::productionCollectors();
    ExperimentOptions base;

    /** Optional checkpoint journal (non-owning; null disables).
     *  Restore, append and fan-out follow the sweep kernel
     *  (harness/sweep.hh); cells fan out up to base.jobs. */
    CheckpointJournal *journal = nullptr;

    /** The caller needs every cell's raw request log. The journal
     *  carries quantiles only, so this counts as journal-insufficient
     *  in the kernel's restore rule. */
    bool want_raw = false;

    /** Metered-latency smoothing window (ns). */
    double metered_window_ns = 100e6;
};

/** One (workload, collector, factor) cell's latency summary. */
struct LatencyCell
{
    std::string workload;
    std::string collector;
    double factor = 0.0;

    bool ok = false;        ///< Invocation completed (else DNF).
    bool restored = false;  ///< Came from the journal, not a run.

    /** @{ Simple (service-stamped) request-latency quantiles (ns). */
    double p50_ns = 0.0;
    double p99_ns = 0.0;
    double p999_ns = 0.0;
    /** @} */

    /** Arrival-stamped p99 (ns): measured from each request's
     *  intended start, so the gap to p99_ns quantifies coordinated
     *  omission even in this closed-loop sweep. */
    double intended_p99_ns = 0.0;

    /** @{ Metered quantiles at LatencySweepOptions::metered_window_ns
     *  (ns). */
    double metered_p50_ns = 0.0;
    double metered_p999_ns = 0.0;
    /** @} */

    /** Full request log — live completed runs only (restored cells
     *  carry quantiles but no raw requests). */
    bool have_raw = false;
    metrics::LatencyRecorder requests;
};

/** Latency sweep results, cell-ordered workload → factor →
 *  collector (the order the runbms tables print in). */
struct LatencySweep
{
    std::vector<LatencyCell> cells;
    std::size_t restored_cells = 0;
};

/** Journal key for one latency cell (DESIGN.md §8): the factor is
 *  keyed by its exact bit pattern so near-equal factors miss rather
 *  than alias. */
std::string latencyCellKey(const std::string &workload,
                           const std::string &collector, double factor);

/** Run the full sweep over @p workload_names. */
LatencySweep
runLatencySweep(const std::vector<std::string> &workload_names,
                const LatencySweepOptions &options);

} // namespace capo::harness

#endif // CAPO_HARNESS_LATENCY_EXPERIMENT_HH
