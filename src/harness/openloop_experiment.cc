#include "harness/openloop_experiment.hh"

#include <atomic>

#include "harness/sweep.hh"
#include "load/driver.hh"
#include "metrics/request_synth.hh"
#include "metrics/summary.hh"
#include "report/codec.hh"
#include "support/rng.hh"
#include "support/strfmt.hh"
#include "workloads/registry.hh"

namespace capo::harness {

namespace {

/** Journal fields: ok, then ten exact doubles (quantiles, goodput,
 *  utility, shed, mean pace). The digest is deliberately excluded —
 *  it exists for determinism tests, not resumes. */
std::vector<std::string>
encodeCell(const OpenLoopCell &cell)
{
    return {cell.ok ? "1" : "0",
            report::encodeDouble(cell.arrival_p50_ns),
            report::encodeDouble(cell.arrival_p99_ns),
            report::encodeDouble(cell.arrival_p999_ns),
            report::encodeDouble(cell.service_p50_ns),
            report::encodeDouble(cell.service_p99_ns),
            report::encodeDouble(cell.service_p999_ns),
            report::encodeDouble(cell.goodput_rps),
            report::encodeDouble(cell.utility),
            report::encodeDouble(cell.shed),
            report::encodeDouble(cell.mean_pace)};
}

bool
decodeCell(const std::vector<std::string> &fields, OpenLoopCell &cell)
{
    cell.restored =
        fields.size() == 11 && report::decodeBool(fields[0], cell.ok) &&
        report::decodeDouble(fields[1], cell.arrival_p50_ns) &&
        report::decodeDouble(fields[2], cell.arrival_p99_ns) &&
        report::decodeDouble(fields[3], cell.arrival_p999_ns) &&
        report::decodeDouble(fields[4], cell.service_p50_ns) &&
        report::decodeDouble(fields[5], cell.service_p99_ns) &&
        report::decodeDouble(fields[6], cell.service_p999_ns) &&
        report::decodeDouble(fields[7], cell.goodput_rps) &&
        report::decodeDouble(fields[8], cell.utility) &&
        report::decodeDouble(fields[9], cell.shed) &&
        report::decodeDouble(fields[10], cell.mean_pace);
    return cell.restored;
}

/** Fill a cell's quantile block from the two latency views. */
void
fillQuantiles(const metrics::LatencyRecorder &recorder,
              OpenLoopCell &cell)
{
    const std::vector<double> points = {0.5, 0.99, 0.999};
    const auto arrival =
        metrics::quantiles(recorder.intendedLatencies(), points);
    const auto service =
        metrics::quantiles(recorder.simpleLatencies(), points);
    cell.arrival_p50_ns = arrival[0];
    cell.arrival_p99_ns = arrival[1];
    cell.arrival_p999_ns = arrival[2];
    cell.service_p50_ns = service[0];
    cell.service_p99_ns = service[1];
    cell.service_p999_ns = service[2];
}

/** Score a finished cell with the shared utility yardstick. */
void
scoreCell(double completed, double latency_sum_ns, double window_ns,
          const load::PacerConfig &pacer, OpenLoopCell &cell)
{
    const double window_sec = window_ns / 1e9;
    cell.goodput_rps =
        window_sec > 0.0 ? completed / window_sec : 0.0;
    const double mean_latency =
        completed > 0.0 ? latency_sum_ns / completed : 0.0;
    cell.utility =
        load::pacingUtility(cell.goodput_rps, mean_latency, pacer);
}

/** The per-cell injection rate: factor 1.0 saturates the lanes. */
double
cellRatePerSec(const OpenLoopSweepOptions &options, double factor)
{
    return factor * options.lanes * 1e9 / options.service_mean_ns;
}

/** @{ Run one cell under @p cell_options; return its dispatches. */
std::uint64_t
runClosedCell(const workloads::Descriptor &workload,
              gc::Algorithm algorithm, double heap_mb,
              const OpenLoopSweepOptions &options,
              const ExperimentOptions &cell_options, OpenLoopCell &cell)
{
    ExperimentOptions run_options = cell_options;
    run_options.invocations = 1;
    run_options.trace_rate = true;
    Runner runner(run_options);
    const auto run = runner.runOnce(workload, algorithm, heap_mb, 0);
    if (!run.usable())
        return run.dispatches;
    const auto &timed = run.iterations.back();

    // Post-hoc open-loop replay over the measured rate timeline: the
    // traffic never fed back into the run (that is the point of the
    // "closed" mode).
    workloads::RequestProfile profile = workload.requests;
    profile.lanes = options.lanes;
    const auto recorder = metrics::synthesizeOpenLoopRequests(
        run.rate_timeline, run.baseline_rate, profile,
        timed.wall_begin, timed.wall_end,
        cellRatePerSec(options, cell.load_factor),
        options.service_mean_ns,
        support::Rng(cell_options.base_seed));
    if (recorder.empty())
        return run.dispatches;
    cell.ok = true;
    fillQuantiles(recorder, cell);
    double latency_sum = 0.0;
    for (double l : recorder.intendedLatencies())
        latency_sum += l;
    scoreCell(static_cast<double>(recorder.size()), latency_sum,
              timed.wall_end - timed.wall_begin, options.pacer, cell);
    return run.dispatches;
}

std::uint64_t
runLiveCell(const workloads::Descriptor &workload,
            gc::Algorithm algorithm, double heap_mb, bool adaptive,
            const OpenLoopSweepOptions &options,
            const ExperimentOptions &cell_options, OpenLoopCell &cell)
{
    load::OpenLoopConfig config;
    config.arrival = options.arrival;
    config.arrival.rate_per_sec =
        cellRatePerSec(options, cell.load_factor);
    config.lanes = options.lanes;
    config.service_mean_ns = options.service_mean_ns;
    config.service_sigma = workload.requests.service_sigma;
    config.heavy_tail_fraction = workload.requests.heavy_tail_fraction;
    config.heavy_tail_scale = workload.requests.heavy_tail_scale;
    config.queue_limit = options.queue_limit;
    config.adaptive_pacing = adaptive;
    config.pacer = options.pacer;
    load::OpenLoopDriver driver(config);

    ExperimentOptions run_options = cell_options;
    run_options.invocations = 1;
    Runner runner(run_options);
    const auto run =
        runner.runOnce(workload, algorithm, heap_mb, 0, &driver);
    if (!run.usable() || driver.completed() == 0)
        return run.dispatches;
    cell.ok = true;
    fillQuantiles(driver.requests(), cell);
    double latency_sum = 0.0;
    for (double l : driver.requests().intendedLatencies())
        latency_sum += l;
    scoreCell(static_cast<double>(driver.completed()), latency_sum,
              run.wall, options.pacer, cell);
    cell.shed = static_cast<double>(driver.shedCount());
    if (adaptive && driver.pacer() != nullptr) {
        cell.mean_pace = driver.pacer()->meanRate();
        cell.pacer_digest =
            load::encodePacerDecisions(driver.pacer()->decisions());
    }
    return run.dispatches;
}
/** @} */

} // namespace

std::string
openLoopCellKey(const std::string &workload,
                const std::string &collector, const std::string &mode,
                double factor)
{
    return "openloop/" + workload + "/" + collector + "/" + mode +
           "/" + report::encodeDouble(factor);
}

OpenLoopSweep
runOpenLoopSweep(const std::vector<std::string> &workload_names,
                 const OpenLoopSweepOptions &options)
{
    OpenLoopSweep sweep;
    for (const auto &name : workload_names) {
        for (auto algorithm : options.collectors) {
            for (const auto &mode : options.modes) {
                for (double factor : options.load_factors) {
                    OpenLoopCell cell;
                    cell.workload = name;
                    cell.collector = gc::algorithmName(algorithm);
                    cell.mode = mode;
                    cell.load_factor = factor;
                    sweep.cells.push_back(std::move(cell));
                }
            }
        }
    }

    // Each cell owns its Runner and driver; dispatch totals are
    // order-independent sums, so the fan-out stays unobservable.
    std::atomic<std::uint64_t> dispatches{0};
    Sweep<OpenLoopCell> kernel;
    kernel.key = [](const OpenLoopCell &c) {
        return openLoopCellKey(c.workload, c.collector, c.mode,
                               c.load_factor);
    };
    kernel.encode = encodeCell;
    kernel.decode = decodeCell;
    kernel.label = [](const OpenLoopCell &c) {
        return "openloop " + c.workload + "/" + c.collector + " " +
               c.mode + " @ " + support::concat(c.load_factor);
    };
    kernel.body = [&](OpenLoopCell &c, const ExperimentOptions &o) {
        const auto &workload = workloads::byName(c.workload);
        gc::Algorithm algorithm = gc::Algorithm::Serial;
        gc::tryAlgorithmFromName(c.collector, algorithm);
        const double heap_mb =
            options.heap_factor *
            workloads::sizeMinHeapMb(workload, o.size);
        dispatches +=
            c.mode == "closed"
                ? runClosedCell(workload, algorithm, heap_mb, options,
                                o, c)
                : runLiveCell(workload, algorithm, heap_mb,
                              c.mode == "adaptive", options, o, c);
    };
    sweep.restored_cells =
        kernel.run(sweep.cells, options.base, options.journal);
    sweep.dispatches = dispatches;
    return sweep;
}

report::ResultTable
openLoopTable(const OpenLoopSweep &sweep)
{
    report::ResultTable table(
        report::Schema{{"workload", report::Type::String},
                       {"collector", report::Type::String},
                       {"mode", report::Type::String},
                       {"load", report::Type::Double},
                       {"completed", report::Type::Bool},
                       {"arrival_p50_ms", report::Type::Double},
                       {"arrival_p99_ms", report::Type::Double},
                       {"arrival_p999_ms", report::Type::Double},
                       {"service_p50_ms", report::Type::Double},
                       {"service_p99_ms", report::Type::Double},
                       {"service_p999_ms", report::Type::Double},
                       {"goodput_rps", report::Type::Double},
                       {"utility", report::Type::Double},
                       {"mean_pace", report::Type::Double},
                       {"shed", report::Type::Double}});
    for (const auto &cell : sweep.cells) {
        table.addRow({report::Value::str(cell.workload),
                      report::Value::str(cell.collector),
                      report::Value::str(cell.mode),
                      report::Value::dbl(cell.load_factor),
                      report::Value::boolean(cell.ok),
                      report::Value::dbl(cell.arrival_p50_ns / 1e6),
                      report::Value::dbl(cell.arrival_p99_ns / 1e6),
                      report::Value::dbl(cell.arrival_p999_ns / 1e6),
                      report::Value::dbl(cell.service_p50_ns / 1e6),
                      report::Value::dbl(cell.service_p99_ns / 1e6),
                      report::Value::dbl(cell.service_p999_ns / 1e6),
                      report::Value::dbl(cell.goodput_rps),
                      report::Value::dbl(cell.utility),
                      report::Value::dbl(cell.mean_pace),
                      report::Value::dbl(cell.shed)});
    }
    return table;
}

report::AsciiTable
openLoopSummary(const OpenLoopSweep &sweep, const std::string &workload)
{
    report::AsciiTable table({"collector", "mode", "load", "p50(arr)",
                              "p99(arr)", "p99(srv)", "goodput",
                              "utility", "pace"});
    for (const auto &cell : sweep.cells) {
        if (cell.workload != workload)
            continue;
        const std::string load = support::fixed(cell.load_factor, 2);
        if (!cell.ok) {
            table.row({cell.collector, cell.mode, load, "DNF", "-", "-",
                       "-", "-", "-"});
            continue;
        }
        table.row({cell.collector, cell.mode, load,
                   support::fixed(cell.arrival_p50_ns / 1e6, 3),
                   support::fixed(cell.arrival_p99_ns / 1e6, 3),
                   support::fixed(cell.service_p99_ns / 1e6, 3),
                   support::fixed(cell.goodput_rps, 1),
                   support::fixed(cell.utility, 2),
                   support::fixed(cell.mean_pace, 2)});
    }
    return table;
}

} // namespace capo::harness
