/**
 * @file
 * Minimum-heap search (paper recommendation H2 / the GMD family).
 *
 * The minimum heap in which a workload can run under a given
 * collector anchors the whole time-space-tradeoff methodology: heap
 * sizes are expressed as multiples of it. Capo determines it the way
 * the DaCapo team does — by bisection over -Xmx until the smallest
 * completing heap is bracketed.
 */

#ifndef CAPO_HARNESS_MINHEAP_HH
#define CAPO_HARNESS_MINHEAP_HH

#include <string>
#include <vector>

#include "gc/factory.hh"
#include "harness/checkpoint.hh"
#include "harness/runner.hh"
#include "report/table.hh"
#include "workloads/descriptor.hh"

namespace capo::harness {

/** Result of a minimum-heap bisection. */
struct MinHeapResult
{
    double min_heap_mb = 0.0;  ///< Smallest completing -Xmx found.
    int probes = 0;            ///< Executions performed.
    bool converged = false;    ///< Bracket shrunk below tolerance.
};

/**
 * Bisect the minimum heap for (workload, collector).
 *
 * Uses single short invocations per probe (min-heap probing does not
 * need timing fidelity, only completion).
 *
 * @param tolerance Relative bracket width at which to stop (e.g.\
 *        0.02 = 2 %).
 */
MinHeapResult findMinHeapMb(const workloads::Descriptor &workload,
                            gc::Algorithm algorithm,
                            const ExperimentOptions &options,
                            double tolerance = 0.02);

/** One cell of a min-heap search grid. */
struct MinHeapCell
{
    std::string workload;
    gc::Algorithm algorithm = gc::Algorithm::G1;
    MinHeapResult result;
};

/** Min-heap results for every (workload, collector) pair. */
struct MinHeapGrid
{
    /** Row-major: workloads outer, collectors inner. */
    std::vector<MinHeapCell> cells;

    const MinHeapResult *at(const std::string &workload,
                            gc::Algorithm algorithm) const;
};

/**
 * Run findMinHeapMb() for every (workload, collector) pair. Each
 * bisection is inherently sequential, so the fan-out happens at the
 * grid level, on the sweep kernel (harness/sweep.hh): `options.jobs`
 * searches run concurrently and any jobs value yields identical
 * output.
 *
 * @param journal Optional checkpoint journal (non-owning), under
 *        minheap/<workload>/<collector> keys; restore and append
 *        follow the kernel.
 */
MinHeapGrid findMinHeapGrid(const std::vector<std::string> &workload_names,
                            const std::vector<gc::Algorithm> &collectors,
                            const ExperimentOptions &options,
                            double tolerance = 0.02,
                            CheckpointJournal *journal = nullptr);

/** The grid as the "minheap" result table, one row per cell in grid
 *  order: workload, collector, converged, min_heap_mb. */
report::ResultTable minHeapTable(const MinHeapGrid &grid);

} // namespace capo::harness

#endif // CAPO_HARNESS_MINHEAP_HH
