#include "harness/latency_experiment.hh"

#include "harness/sweep.hh"
#include "metrics/latency.hh"
#include "report/codec.hh"
#include "support/rng.hh"
#include "support/strfmt.hh"
#include "workloads/registry.hh"

namespace capo::harness {

namespace {

/** Journal fields: ok, then the six quantiles as exact doubles. (The
 *  strict field-count check below means journals written before the
 *  arrival-stamped column simply miss and re-run.) */
std::vector<std::string>
encodeCell(const LatencyCell &cell)
{
    return {cell.ok ? "1" : "0",
            report::encodeDouble(cell.p50_ns),
            report::encodeDouble(cell.p99_ns),
            report::encodeDouble(cell.p999_ns),
            report::encodeDouble(cell.intended_p99_ns),
            report::encodeDouble(cell.metered_p50_ns),
            report::encodeDouble(cell.metered_p999_ns)};
}

bool
decodeCell(const std::vector<std::string> &fields, LatencyCell &cell)
{
    cell.restored =
        fields.size() == 7 && report::decodeBool(fields[0], cell.ok) &&
        report::decodeDouble(fields[1], cell.p50_ns) &&
        report::decodeDouble(fields[2], cell.p99_ns) &&
        report::decodeDouble(fields[3], cell.p999_ns) &&
        report::decodeDouble(fields[4], cell.intended_p99_ns) &&
        report::decodeDouble(fields[5], cell.metered_p50_ns) &&
        report::decodeDouble(fields[6], cell.metered_p999_ns);
    return cell.restored;
}

/** One traced invocation, its synthesized request log and quantiles. */
void
runCell(const LatencySweepOptions &options,
        const ExperimentOptions &cell_options, LatencyCell &cell)
{
    ExperimentOptions run_options = cell_options;
    run_options.invocations = 1;
    run_options.trace_rate = true;
    const auto &workload = workloads::byName(cell.workload);
    gc::Algorithm algorithm = gc::Algorithm::Serial;
    gc::tryAlgorithmFromName(cell.collector, algorithm);
    const auto set =
        Runner(run_options).run(workload, algorithm, cell.factor);
    if (!set.allCompleted())
        return;
    const auto &run = set.runs.front();
    const auto &timed = run.iterations.back();
    cell.requests = metrics::synthesizeRequests(
        run.rate_timeline, run.baseline_rate, workload.requests,
        timed.wall_begin, timed.wall_end,
        support::Rng(run_options.base_seed));
    const auto simple = metrics::quantiles(
        cell.requests.simpleLatencies(), {0.5, 0.99, 0.999});
    const auto metered = metrics::quantiles(
        cell.requests.meteredLatencies(options.metered_window_ns),
        {0.5, 0.999});
    cell.ok = true;
    cell.have_raw = true;
    cell.p50_ns = simple[0];
    cell.p99_ns = simple[1];
    cell.p999_ns = simple[2];
    cell.intended_p99_ns =
        metrics::quantile(cell.requests.intendedLatencies(), 0.99);
    cell.metered_p50_ns = metered[0];
    cell.metered_p999_ns = metered[1];
}

} // namespace

std::string
latencyCellKey(const std::string &workload,
               const std::string &collector, double factor)
{
    return "latency/" + workload + "/" + collector + "/" +
           report::encodeDouble(factor);
}

LatencySweep
runLatencySweep(const std::vector<std::string> &workload_names,
                const LatencySweepOptions &options)
{
    LatencySweep sweep;
    for (const auto &name : workload_names) {
        for (double factor : options.factors) {
            for (auto algorithm : options.collectors) {
                LatencyCell cell;
                cell.workload = name;
                cell.collector = gc::algorithmName(algorithm);
                cell.factor = factor;
                sweep.cells.push_back(std::move(cell));
            }
        }
    }

    Sweep<LatencyCell> kernel;
    kernel.key = [](const LatencyCell &c) {
        return latencyCellKey(c.workload, c.collector, c.factor);
    };
    kernel.encode = encodeCell;
    kernel.decode = decodeCell;
    kernel.label = [](const LatencyCell &c) {
        return "latency " + c.workload + "/" + c.collector + " @ " +
               support::concat(c.factor) + "x";
    };
    kernel.body = [&](LatencyCell &c, const ExperimentOptions &o) {
        runCell(options, o, c);
    };
    // Raw request logs cannot restore from journaled quantiles.
    sweep.restored_cells = kernel.run(sweep.cells, options.base,
                                      options.journal, !options.want_raw);
    return sweep;
}

} // namespace capo::harness
