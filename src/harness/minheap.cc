#include "harness/minheap.hh"

#include <algorithm>

#include "harness/sweep.hh"
#include "report/codec.hh"
#include "support/logging.hh"
#include "workloads/registry.hh"

namespace capo::harness {

MinHeapResult
findMinHeapMb(const workloads::Descriptor &workload,
              gc::Algorithm algorithm, const ExperimentOptions &options,
              double tolerance)
{
    // Probe runs: one invocation, few iterations, tight time cap so
    // thrashing configurations fail fast instead of crawling.
    ExperimentOptions probe = options;
    probe.invocations = 1;
    probe.iterations = std::min(options.iterations, 2);
    probe.trace_rate = false;
    Runner runner(probe);

    const double reference =
        workloads::sizeMinHeapMb(workload, options.size);

    MinHeapResult result;
    auto completes = [&](double heap_mb) {
        ++result.probes;
        const auto run = runner.runOnce(workload, algorithm, heap_mb, 0);
        return run.usable();
    };

    // Bracket: grow upward from a clearly-too-small start.
    double lo = reference * 0.25;
    double hi = reference * 0.5;
    while (!completes(hi)) {
        lo = hi;
        hi *= 2.0;
        if (hi > reference * 64.0) {
            support::warn("min-heap search for ", workload.name, "/",
                          gc::algorithmName(algorithm),
                          " failed to bracket");
            result.min_heap_mb = hi;
            return result;
        }
    }

    // Bisect.
    while ((hi - lo) / hi > tolerance) {
        const double mid = 0.5 * (lo + hi);
        if (completes(mid))
            hi = mid;
        else
            lo = mid;
    }

    result.min_heap_mb = hi;
    result.converged = true;
    return result;
}

const MinHeapResult *
MinHeapGrid::at(const std::string &workload,
                gc::Algorithm algorithm) const
{
    for (const auto &cell : cells) {
        if (cell.workload == workload && cell.algorithm == algorithm)
            return &cell.result;
    }
    return nullptr;
}

MinHeapGrid
findMinHeapGrid(const std::vector<std::string> &workload_names,
                const std::vector<gc::Algorithm> &collectors,
                const ExperimentOptions &options, double tolerance,
                CheckpointJournal *journal)
{
    MinHeapGrid grid;
    grid.cells.reserve(workload_names.size() * collectors.size());
    for (const auto &name : workload_names) {
        for (auto algorithm : collectors)
            grid.cells.push_back({name, algorithm, {}});
    }

    // Journal fields: exact min-heap bit pattern, probe count,
    // converged flag.
    Sweep<MinHeapCell> sweep;
    sweep.key = [](const MinHeapCell &c) {
        return "minheap/" + c.workload + "/" +
               gc::algorithmName(c.algorithm);
    };
    sweep.encode = [](const MinHeapCell &c) {
        return std::vector<std::string>{
            report::encodeDouble(c.result.min_heap_mb),
            std::to_string(c.result.probes),
            c.result.converged ? "1" : "0"};
    };
    sweep.decode = [](const std::vector<std::string> &fields,
                      MinHeapCell &c) {
        return fields.size() == 3 &&
               report::decodeDouble(fields[0], c.result.min_heap_mb) &&
               report::decodeInt(fields[1], c.result.probes) &&
               report::decodeBool(fields[2], c.result.converged);
    };
    sweep.label = [](const MinHeapCell &c) {
        return "minheap " + c.workload + "/" +
               gc::algorithmName(c.algorithm);
    };
    sweep.body = [&](MinHeapCell &c, const ExperimentOptions &o) {
        c.result = findMinHeapMb(workloads::byName(c.workload),
                                 c.algorithm, o, tolerance);
    };
    sweep.run(grid.cells, options, journal);
    return grid;
}

} // namespace capo::harness
