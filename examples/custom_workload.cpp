/**
 * @file
 * Extending the suite: define a brand-new workload with the public
 * descriptor API, then put it through the paper's methodology — a
 * min-heap search, a heap-factor LBO sweep, and a latency profile.
 *
 * The example models "ledger", a hypothetical transaction-processing
 * service: a large resident order book, a steady allocation rate, and
 * latency-sensitive request handling.
 */

#include <iostream>

#include "harness/lbo_experiment.hh"
#include "harness/minheap.hh"
#include "metrics/request_synth.hh"
#include "report/table.hh"
#include "support/flags.hh"
#include "support/strfmt.hh"
#include "workloads/plans.hh"

using namespace capo;

namespace {

/** Build the custom workload descriptor. */
workloads::Descriptor
ledger()
{
    workloads::Descriptor d;
    d.name = "ledger";
    d.summary = "hypothetical in-memory transaction ledger "
                "(custom workload)";
    d.latency_sensitive = true;
    d.threads = 24;

    // Simulation shape: a 300 MB resident book built up over the
    // first fifth of an iteration, moderate transient survival.
    d.live_fraction = 0.75;
    d.survivor_fraction = 0.02;
    d.buildup_fraction = 0.20;

    // Nominal characteristics (the numbers a characterization run of
    // the real application would produce).
    d.alloc.ara = 4200.0;  // bytes/usec
    d.gc.gmd_mb = 400.0;
    d.gc.gmu_mb = 520.0;
    d.gc.gms_mb = 64.0;
    d.perf.pet_sec = 3.0;
    d.perf.ppe = 30.0;  // scales to ~10 of 32 hardware threads
    d.perf.psd = 1.0;
    d.perf.pwu = 3.0;
    d.perf.pin = 90.0;

    d.requests.enabled = true;
    d.requests.count = 60000;
    d.requests.lanes = 24;
    d.requests.service_sigma = 0.7;
    d.requests.heavy_tail_fraction = 0.01;
    d.requests.heavy_tail_scale = 8.0;
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    support::Flags flags(
        "capo custom_workload: methodology applied to a new workload");
    flags.parse(argc, argv);

    const auto workload = ledger();
    std::cout << "Custom workload: " << workload.name << " — "
              << workload.summary << "\n\n";

    harness::ExperimentOptions options;
    options.iterations = 3;
    options.invocations = 2;

    // 1. Recommendation H2: find the minimum heap per collector.
    std::cout << "Minimum heap by collector (bisection):\n";
    for (auto algorithm :
         {gc::Algorithm::G1, gc::Algorithm::Serial, gc::Algorithm::Zgc}) {
        const auto found =
            harness::findMinHeapMb(workload, algorithm, options);
        std::cout << "  " << support::padRight(
                         gc::algorithmName(algorithm), 9)
                  << support::fixed(found.min_heap_mb, 1) << " MB  ("
                  << found.probes << " probe runs)\n";
    }

    // 2. Recommendation H1/O1/O2: the time-space tradeoff via LBO.
    harness::LboSweepOptions sweep;
    sweep.factors = {1.5, 2.0, 3.0, 6.0};
    sweep.base = options;
    const auto lbo = harness::runLboSweep(workload, sweep);

    std::cout << "\nLBO overheads (wall / task clock):\n";
    std::vector<std::string> header = {"collector"};
    for (double f : sweep.factors)
        header.push_back(support::fixed(f, 1) + "x");
    report::AsciiTable table(header);
    for (auto algorithm : sweep.collectors) {
        const std::string name = gc::algorithmName(algorithm);
        std::vector<std::string> row = {name};
        for (double f : sweep.factors) {
            if (!lbo.completedAt(name, f)) {
                row.push_back("DNF");
                continue;
            }
            const auto o = lbo.analysis.overhead(name, f);
            row.push_back(support::fixed(o.wall, 2) + "/" +
                          support::fixed(o.cpu, 2));
        }
        table.row(row);
    }
    table.render(std::cout);

    // 3. Recommendation L1/L2: user-experienced latency.
    options.trace_rate = true;
    options.invocations = 1;
    harness::Runner runner(options);
    std::cout << "\nRequest latency at 2x heap (p50 / p99.9, simple), "
                 "per collector:\n";
    for (auto algorithm : gc::productionCollectors()) {
        const auto set = runner.run(workload, algorithm, 2.0);
        if (!set.allCompleted()) {
            std::cout << "  " << support::padRight(
                             gc::algorithmName(algorithm), 9)
                      << "DNF\n";
            continue;
        }
        const auto &run = set.runs.front();
        const auto &timed = run.iterations.back();
        const auto requests = metrics::synthesizeRequests(
            run.rate_timeline, run.baseline_rate, workload.requests,
            timed.wall_begin, timed.wall_end, support::Rng(7));
        auto latencies = requests.simpleLatencies();
        std::cout << "  " << support::padRight(
                         gc::algorithmName(algorithm), 9)
                  << support::fixed(
                         metrics::quantile(latencies, 0.5) / 1e6, 3)
                  << " ms / "
                  << support::fixed(
                         metrics::quantile(latencies, 0.999) / 1e6, 3)
                  << " ms\n";
    }
    return 0;
}
