/**
 * @file
 * Open-loop traffic sweep: closed-loop measurement vs live open-loop
 * agents, and static vs feedback GC pacing, across load factors.
 *
 * Three modes per (workload, collector, load-factor) cell:
 *
 *  - "closed": the classic pipeline — one traced closed-loop run,
 *    with the open-loop request stream synthesized *post hoc* over
 *    the recorded rate timeline (metrics/request_synth). The traffic
 *    never perturbs the run and GC pacing never sees it.
 *  - "static": a live `load::OpenLoopDriver` attached to the run —
 *    timer-driven arrivals, service lanes in the stoppable world —
 *    under the collector's built-in static pacer.
 *  - "adaptive": the same live driver with the utility-gradient
 *    pacer (load/pacer) steering concurrent-GC pacing.
 *
 * Every cell reports arrival- and service-stamped latency quantiles,
 * goodput and the shared PCC-style utility, so the
 * coordinated-omission gap (arrival p99 vs service p99) and the
 * pacing-policy gap (utility static vs adaptive) are directly
 * comparable. Cells run on the sweep kernel (harness/sweep.hh) and
 * journal under openloop/<workload>/<collector>/<mode>/<factor-bits>
 * keys.
 */

#ifndef CAPO_HARNESS_OPENLOOP_EXPERIMENT_HH
#define CAPO_HARNESS_OPENLOOP_EXPERIMENT_HH

#include <string>
#include <vector>

#include "gc/factory.hh"
#include "harness/checkpoint.hh"
#include "harness/runner.hh"
#include "load/arrival.hh"
#include "load/pacer.hh"

namespace capo::harness {

/** Parameters of an open-loop sweep. */
struct OpenLoopSweepOptions
{
    /** Arrival rate per load factor: factor × lanes / service_mean
     *  (factor 1.0 saturates the lanes exactly). */
    std::vector<double> load_factors = {0.5, 1.2};

    std::vector<gc::Algorithm> collectors = {gc::Algorithm::Shenandoah};
    std::vector<std::string> modes = {"closed", "static", "adaptive"};

    /** -Xmx as a multiple of the workload's minimum heap. */
    double heap_factor = 2.0;

    /** Arrival-process shape; rate_per_sec is overwritten per cell. */
    load::ArrivalSpec arrival;

    int lanes = 8;
    double service_mean_ns = 1e6;
    std::size_t queue_limit = 4096;

    /** Monitoring-interval/utility contract shared by every mode. */
    load::PacerConfig pacer;

    ExperimentOptions base;

    /** Optional checkpoint journal (non-owning; null disables). */
    CheckpointJournal *journal = nullptr;
};

/** One (workload, collector, mode, load-factor) cell. */
struct OpenLoopCell
{
    std::string workload;
    std::string collector;
    std::string mode;
    double load_factor = 0.0;

    bool ok = false;
    bool restored = false;

    /** @{ Arrival-stamped (coordinated-omission-correct) quantiles
     *  (ns). */
    double arrival_p50_ns = 0.0;
    double arrival_p99_ns = 0.0;
    double arrival_p999_ns = 0.0;
    /** @} */

    /** @{ Service-stamped quantiles (ns): the CO-blind view. */
    double service_p50_ns = 0.0;
    double service_p99_ns = 0.0;
    double service_p999_ns = 0.0;
    /** @} */

    double goodput_rps = 0.0;  ///< Completed requests per second.
    double utility = 0.0;      ///< pacingUtility over the whole run.
    double shed = 0.0;         ///< Requests shed (live modes only).
    double mean_pace = 1.0;    ///< Mean pacing rate (adaptive only).

    /** Exact bit digest of the pacer's decision trace (adaptive live
     *  cells only; empty otherwise — not journaled). */
    std::string pacer_digest;
};

/** Open-loop sweep results in workload → collector → mode → factor
 *  order. */
struct OpenLoopSweep
{
    std::vector<OpenLoopCell> cells;
    std::size_t restored_cells = 0;
    std::uint64_t dispatches = 0;
};

/** Journal key for one cell (exact factor bits, as everywhere). */
std::string openLoopCellKey(const std::string &workload,
                            const std::string &collector,
                            const std::string &mode, double factor);

OpenLoopSweep
runOpenLoopSweep(const std::vector<std::string> &workload_names,
                 const OpenLoopSweepOptions &options);

} // namespace capo::harness

#endif // CAPO_HARNESS_OPENLOOP_EXPERIMENT_HH
