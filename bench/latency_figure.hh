/**
 * @file
 * Shared driver for the latency figures (Figures 3, 6 and the
 * appendix latency plots): runs one latency-sensitive workload under
 * every production collector at the requested heap factors, and
 * prints simple and metered percentile curves per panel.
 */

#ifndef CAPO_BENCH_LATENCY_FIGURE_HH
#define CAPO_BENCH_LATENCY_FIGURE_HH

#include <iostream>
#include <map>

#include "bench/bench_common.hh"
#include "support/ascii_chart.hh"
#include "metrics/latency.hh"
#include "metrics/request_synth.hh"
#include "report/table.hh"
#include "support/rng.hh"

namespace capo::bench {

/** One collector's synthesized request log for a configuration. */
struct LatencyRun
{
    bool ok = false;
    metrics::LatencyRecorder requests;
};

/** Run one (workload, collector, factor) and synthesize requests. */
inline LatencyRun
runLatency(const workloads::Descriptor &workload,
           gc::Algorithm algorithm, double factor,
           harness::ExperimentOptions options)
{
    options.trace_rate = true;
    options.invocations = 1;
    harness::Runner runner(options);
    const auto set = runner.run(workload, algorithm, factor);
    LatencyRun out;
    if (!set.allCompleted())
        return out;
    const auto &run = set.runs.front();
    const auto &timed = run.iterations.back();
    out.requests = metrics::synthesizeRequests(
        run.rate_timeline, run.baseline_rate, workload.requests,
        timed.wall_begin, timed.wall_end,
        support::Rng(options.base_seed ^ 0xfacade));
    out.ok = true;
    return out;
}

/** Percentile labels matching the paper's x axis. */
inline std::vector<std::string>
percentileLabels()
{
    return {"0", "50", "90", "99", "99.9", "99.99", "99.999",
            "99.9999"};
}

/** The typed rows behind every latency panel (one per collector and
 *  percentile), keyed so all panels of a figure share one table. */
inline report::ResultTable &
latencyPercentileTable(report::ResultStore &store)
{
    return store.table(
        "latency_percentiles",
        report::Schema{{"workload", report::Type::String},
                       {"factor", report::Type::Double},
                       {"metric", report::Type::String},
                       {"collector", report::Type::String},
                       {"percentile", report::Type::String},
                       {"latency_ns", report::Type::Double}});
}

/**
 * Print one panel: request-latency percentiles (ms) for every
 * collector, for the chosen metric.
 *
 * @param window_ns Metered smoothing window; < 0 selects simple
 *        latency, 0 selects full smoothing.
 * @param rows Optional typed sink for the panel's percentile points
 *        (@p workload / @p factor / @p metric name the panel there).
 */
inline void
latencyPanel(const std::string &title,
             const std::map<std::string, LatencyRun> &runs,
             double window_ns, report::ResultTable *rows = nullptr,
             const std::string &workload = "", double factor = 0.0,
             const std::string &metric = "")
{
    std::cout << "\n## " << title << "\n";
    const auto labels = percentileLabels();
    std::vector<std::string> header = {"percentile"};
    header.insert(header.end(), labels.begin(), labels.end());
    report::AsciiTable table(header);

    support::AsciiChart chart(64, 14);
    chart.setLogY(true);
    chart.setXLabel("percentile (index)");
    chart.setYLabel("request latency (ms)");

    for (const auto &[name, run] : runs) {
        std::vector<std::string> row = {name};
        if (!run.ok) {
            row.insert(row.end(), labels.size(), "-");
            table.row(row);
            continue;
        }
        const auto curve = metrics::percentileCurve(
            window_ns < 0.0 ? run.requests.simpleLatencies()
                            : run.requests.meteredLatencies(window_ns));
        std::vector<std::pair<double, double>> pts;
        for (std::size_t i = 0; i < curve.size(); ++i) {
            row.push_back(latencyMs(curve[i].second));
            pts.emplace_back(static_cast<double>(i),
                             curve[i].second / 1e6);
            if (rows != nullptr && i < labels.size()) {
                rows->addRow({report::Value::str(workload),
                              report::Value::dbl(factor),
                              report::Value::str(metric),
                              report::Value::str(name),
                              report::Value::str(labels[i]),
                              report::Value::dbl(curve[i].second)});
            }
        }
        chart.addSeries(name, std::move(pts));
        table.row(row);
    }
    table.render(std::cout);
    std::cout << chart.render();
}

/** Produce the full figure for one workload (all panels). */
inline void
latencyFigure(const workloads::Descriptor &workload,
              const harness::ExperimentOptions &options,
              const std::vector<double> &factors = {2.0, 6.0},
              report::ResultStore *store = nullptr)
{
    report::ResultTable *rows =
        store != nullptr ? &latencyPercentileTable(*store) : nullptr;
    for (double factor : factors) {
        std::map<std::string, LatencyRun> runs;
        for (auto algorithm : gc::productionCollectors()) {
            runs[gc::algorithmName(algorithm)] =
                runLatency(workload, algorithm, factor, options);
        }
        const std::string at =
            workload.name + ", " + support::fixed(factor, 1) + "x heap (" +
            support::fixed(workload.gc.gmd_mb * factor, 0) + " MB)";
        latencyPanel("Simple latency, " + at + " [ms]", runs, -1.0,
                     rows, workload.name, factor, "simple");
        latencyPanel("Metered latency (100 ms smoothing), " + at +
                         " [ms]",
                     runs, 100e6, rows, workload.name, factor,
                     "metered_100ms");
        latencyPanel("Metered latency (full smoothing), " + at + " [ms]",
                     runs, 0.0, rows, workload.name, factor,
                     "metered_full");
    }
}

} // namespace capo::bench

#endif // CAPO_BENCH_LATENCY_FIGURE_HH
