#include "harness/lbo_experiment.hh"

#include "harness/sweep.hh"
#include "metrics/summary.hh"
#include "report/codec.hh"
#include "support/logging.hh"

namespace capo::harness {

namespace {

/** One (collector, factor) cell's summary — computed from its
 *  invocations after a live run, or decoded from the journal. */
struct LboCell
{
    gc::Algorithm algorithm = gc::Algorithm::G1;
    double factor = 0.0;
    bool ok = false;
    std::uint64_t dispatches = 0;
    metrics::RunCost cost;
    std::vector<CellError> errors;
};

std::string
cellKey(const std::string &workload, const LboCell &cell)
{
    // The factor is keyed by its exact bit pattern: a sweep resumed
    // with even slightly different factors must miss, not alias.
    return "lbo/" + workload + "/" + gc::algorithmName(cell.algorithm) +
           "/" + report::encodeDouble(cell.factor);
}

/** Journal fields: ok, dispatches, cost (4 exact doubles), then one
 *  "e:<invocation>:<attempts>:<kind>" field per quarantined error. */
std::vector<std::string>
encodeCell(const LboCell &cell)
{
    std::vector<std::string> fields;
    fields.reserve(6 + cell.errors.size());
    fields.push_back(cell.ok ? "1" : "0");
    fields.push_back(std::to_string(cell.dispatches));
    fields.push_back(report::encodeDouble(cell.cost.wall));
    fields.push_back(report::encodeDouble(cell.cost.cpu));
    fields.push_back(report::encodeDouble(cell.cost.stw_wall));
    fields.push_back(report::encodeDouble(cell.cost.stw_cpu));
    for (const auto &e : cell.errors) {
        fields.push_back("e:" + std::to_string(e.invocation) + ":" +
                         std::to_string(e.attempts) + ":" + e.kind);
    }
    return fields;
}

bool
decodeCell(const std::vector<std::string> &fields,
           const std::string &workload, LboCell &cell)
{
    if (fields.size() < 6 || !report::decodeBool(fields[0], cell.ok) ||
        !report::decodeUint(fields[1], cell.dispatches) ||
        !report::decodeDouble(fields[2], cell.cost.wall) ||
        !report::decodeDouble(fields[3], cell.cost.cpu) ||
        !report::decodeDouble(fields[4], cell.cost.stw_wall) ||
        !report::decodeDouble(fields[5], cell.cost.stw_cpu)) {
        return false;
    }
    for (std::size_t i = 6; i < fields.size(); ++i) {
        const auto &f = fields[i];
        if (f.rfind("e:", 0) != 0)
            return false;
        const auto c1 = f.find(':', 2);
        const auto c2 =
            c1 == std::string::npos ? c1 : f.find(':', c1 + 1);
        if (c2 == std::string::npos)
            return false;
        CellError e;
        e.workload = workload;
        e.collector = gc::algorithmName(cell.algorithm);
        e.heap_factor = cell.factor;
        e.kind = f.substr(c2 + 1);
        if (!report::decodeInt(f.substr(2, c1 - 2), e.invocation) ||
            !report::decodeInt(f.substr(c1 + 1, c2 - c1 - 1),
                               e.attempts)) {
            return false;
        }
        cell.errors.push_back(std::move(e));
    }
    return true;
}

/** Run every invocation of one cell and summarise it. jobs also fans
 *  the invocations inside the cell (help-first scheduling makes the
 *  nesting deadlock-free). */
void
runCell(const workloads::Descriptor &workload,
        const ExperimentOptions &options, LboCell &cell)
{
    const std::string name = gc::algorithmName(cell.algorithm);
    const auto set =
        Runner(options).run(workload, cell.algorithm, cell.factor);
    for (const auto &run : set.runs)
        cell.dispatches += run.dispatches;
    cell.ok = set.allCompleted();
    if (cell.ok)
        cell.cost = set.meanTimedCost();
    for (std::size_t inv = 0; inv < set.runs.size(); ++inv) {
        const auto &run = set.runs[inv];
        if (run.usable())
            continue;
        CellError e;
        e.workload = workload.name;
        e.collector = name;
        e.heap_factor = cell.factor;
        e.invocation = static_cast<int>(inv);
        e.attempts = run.attempts;
        e.kind = errorKind(run);
        cell.errors.push_back(std::move(e));
    }
}

} // namespace

WorkloadLbo
runLboSweep(const workloads::Descriptor &workload,
            const LboSweepOptions &options)
{
    // Row-major grid (collector, then factor): the merged timeline
    // and the result maps read in the same order.
    std::vector<LboCell> cells;
    cells.reserve(options.collectors.size() * options.factors.size());
    for (auto algorithm : options.collectors) {
        for (double factor : options.factors) {
            LboCell cell;
            cell.algorithm = algorithm;
            cell.factor = factor;
            cells.push_back(std::move(cell));
        }
    }

    Sweep<LboCell> sweep;
    sweep.key = [&](const LboCell &c) { return cellKey(workload.name, c); };
    sweep.encode = encodeCell;
    sweep.decode = [&](const std::vector<std::string> &fields,
                       LboCell &c) {
        return decodeCell(fields, workload.name, c);
    };
    sweep.label = [](const LboCell &c) {
        return std::string(gc::algorithmName(c.algorithm)) + " @ " +
               support::concat(c.factor) + "x";
    };
    sweep.body = [&](LboCell &c, const ExperimentOptions &o) {
        runCell(workload, o, c);
    };

    WorkloadLbo result;
    result.workload = workload.name;
    result.restored_cells =
        sweep.run(cells, options.base, options.journal);
    for (const auto &cell : cells) {
        const std::string name = gc::algorithmName(cell.algorithm);
        result.dispatches += cell.dispatches;
        result.completed[{name, cell.factor}] = cell.ok;
        if (cell.ok)
            result.analysis.add(name, cell.factor, cell.cost);
        result.errors.insert(result.errors.end(), cell.errors.begin(),
                             cell.errors.end());
    }
    return result;
}

std::vector<SuiteLboPoint>
aggregateSuiteLbo(const std::vector<WorkloadLbo> &per_workload,
                  const LboSweepOptions &options)
{
    std::vector<SuiteLboPoint> points;
    for (auto algorithm : options.collectors) {
        const std::string name = gc::algorithmName(algorithm);
        for (double factor : options.factors) {
            SuiteLboPoint point;
            point.collector = name;
            point.factor = factor;

            std::vector<double> walls, cpus;
            for (const auto &w : per_workload) {
                if (!w.completedAt(name, factor))
                    continue;
                const auto o = w.analysis.overhead(name, factor);
                walls.push_back(o.wall);
                cpus.push_back(o.cpu);
            }
            point.completed = walls.size();
            point.plotted = point.completed == per_workload.size() &&
                            !per_workload.empty();
            if (!walls.empty()) {
                point.wall_geomean = metrics::geomean(walls);
                point.cpu_geomean = metrics::geomean(cpus);
            }
            points.push_back(point);
        }
    }
    return points;
}

} // namespace capo::harness
