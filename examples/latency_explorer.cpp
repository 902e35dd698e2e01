/**
 * @file
 * User-experienced latency, per recommendations L1/L2: report request
 * latency distributions (never GC pauses) and show why — the same run
 * summarized three ways: GC pause statistics, MMU, and simple vs
 * metered request percentiles.
 *
 *   $ latency_explorer --workload cassandra --collector zgc --factor 2
 */

#include <iostream>

#include "harness/runner.hh"
#include "metrics/latency.hh"
#include "metrics/mmu.hh"
#include "metrics/request_synth.hh"
#include "report/table.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strfmt.hh"
#include "workloads/registry.hh"

using namespace capo;

int
main(int argc, char **argv)
{
    support::Flags flags(
        "capo latency_explorer: pauses vs MMU vs request latency");
    flags.addString("workload", "cassandra",
                    "one of the nine latency-sensitive workloads");
    flags.addString("collector", "g1", "collector to run");
    flags.addDouble("factor", 2.0, "heap factor (x min heap)");
    flags.addDouble("smoothing-ms", 100.0,
                    "metered-latency smoothing window (ms)");
    flags.parse(argc, argv);

    const auto &workload = workloads::byName(flags.getString("workload"));
    if (!workload.latency_sensitive) {
        support::fatal(workload.name,
                       " is not latency-sensitive; pick one of: "
                       "cassandra h2 jme kafka lusearch spring tomcat "
                       "tradebeans tradesoap");
    }
    const auto algorithm =
        gc::algorithmFromName(flags.getString("collector"));

    harness::ExperimentOptions options;
    options.iterations = 3;
    options.invocations = 1;
    options.trace_rate = true;
    harness::Runner runner(options);

    const auto set =
        runner.run(workload, algorithm, flags.getDouble("factor"));
    if (!set.allCompleted()) {
        std::cout << "run failed (heap below minimum)\n";
        return 1;
    }
    const auto &run = set.runs.front();
    const auto &timed = run.iterations.back();

    // 1. What a pause-time proxy would report.
    std::cout << "GC pause view (the misleading proxy):\n"
              << "  pauses " << run.log.pauseCount() << ", total "
              << support::humanNanos(run.log.stwWall()) << ", max "
              << support::humanNanos(run.log.maxPause()) << "\n\n";

    // 2. Minimum mutator utilization.
    metrics::Mmu mmu(run.log.stwIntervals(), timed.wall_begin,
                     timed.wall_end);
    std::cout << "MMU over the timed iteration:\n";
    for (double w_ms : {1.0, 10.0, 100.0, 1000.0}) {
        std::cout << "  " << support::padLeft(
                         support::fixed(w_ms, 0) + " ms", 8)
                  << " window: "
                  << support::fixed(mmu.at(w_ms * 1e6), 3) << "\n";
    }

    // 3. What users actually experience.
    const auto requests = metrics::synthesizeRequests(
        run.rate_timeline, run.baseline_rate, workload.requests,
        timed.wall_begin, timed.wall_end, support::Rng(42));
    const double window_ns = flags.getDouble("smoothing-ms") * 1e6;

    std::cout << "\nRequest latency over " << requests.size()
              << " requests [ms]:\n";
    report::AsciiTable table(
        {"percentile", "simple",
         "metered(" +
             support::fixed(flags.getDouble("smoothing-ms"), 0) + "ms)",
         "metered(full)"});
    const auto simple = metrics::percentileCurve(
        requests.simpleLatencies());
    const auto metered =
        metrics::percentileCurve(requests.meteredLatencies(window_ns));
    const auto full =
        metrics::percentileCurve(requests.meteredLatencies(0.0));
    const char *labels[] = {"min",   "50",     "90",     "99",
                            "99.9",  "99.99",  "99.999", "99.9999"};
    for (std::size_t i = 0; i < simple.size(); ++i) {
        table.row({labels[i], support::fixed(simple[i].second / 1e6, 3),
                   support::fixed(metered[i].second / 1e6, 3),
                   support::fixed(full[i].second / 1e6, 3)});
    }
    table.render(std::cout);

    std::cout << "\nMetered latency also charges the queueing delay a "
                 "pause imposes on\nrequests behind it — the cascade "
                 "a pause-time proxy hides.\n";
    return 0;
}
