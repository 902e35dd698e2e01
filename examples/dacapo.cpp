/**
 * @file
 * A DaCapo-style command line for the simulated suite:
 *
 *   $ dacapo lusearch -n 5 --gc g1 --heap-factor 2
 *   $ dacapo h2 -p                # print nominal statistics and exit
 *   $ dacapo cassandra --latency-csv out.csv
 *   $ dacapo fop --trace-out fop.json   # Perfetto/Chrome trace
 *
 * Mirrors the harness conventions the paper describes: n iterations
 * with the last one timed, a PASSED line with the timed duration, and
 * the `-p` flag for the per-workload nominal-statistics report.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "fault/fault.hh"
#include "harness/runner.hh"
#include "metrics/latency.hh"
#include "metrics/request_synth.hh"
#include "report/artifact.hh"
#include "report/table.hh"
#include "runtime/gc_log.hh"
#include "trace/chrome_export.hh"
#include "trace/sampler.hh"
#include "trace/sink.hh"
#include "stats/stat_table.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strfmt.hh"
#include "workloads/plans.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

void
printNominalStats(const workloads::Descriptor &workload)
{
    const auto table = stats::shippedStats();
    std::cout << workload.name << ": " << workload.summary << "\n\n";
    report::AsciiTable out(
        {"Metric", "Score", "Value", "Rank", "Description"});
    for (const auto &info : stats::catalog()) {
        const auto value = table.get(workload.name, info.id);
        if (!value)
            continue;
        const auto rs = table.rankScore(workload.name, info.id);
        std::string desc = info.description;
        if (desc.size() > 52)
            desc = desc.substr(0, 49) + "...";
        out.row({info.code, std::to_string(rs.score),
                 support::general(*value, 4), std::to_string(rs.rank),
                 desc});
    }
    out.render(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    support::Flags flags("dacapo-style runner for the simulated suite");
    flags.addInt("n", 5, "iterations (the last is timed)");
    flags.addInt("invocations", 1, "invocations of the benchmark");
    flags.addInt("jobs", 1,
                 "invocations to run concurrently (0 = all hardware "
                 "threads); results are identical for any value");
    flags.addAlias("j", "jobs");
    flags.addString("gc", "g1", "collector");
    flags.addDouble("heap-factor", 2.0,
                    "heap as a multiple of the minimum (GMD)");
    flags.addDouble("heap-mb", 0.0, "explicit -Xmx in MB (overrides "
                                    "--heap-factor)");
    flags.addString("size", "default",
                    "input size: small | default | large | vlarge");
    flags.addBool("p", false, "print nominal statistics and exit");
    flags.addString("latency-csv", "",
                    "save raw request latencies to this CSV file");
    flags.addBool("verbose-gc", false,
                  "print an -Xlog:gc style collector log");
    flags.addInt("seed", 0x5eed, "random seed");
    flags.addString("trace-out", "",
                    "write a Chrome/Perfetto trace-event JSON file");
    flags.addString("trace-categories", "all",
                    "categories to trace: sim,runtime,gc,harness,"
                    "metrics | all | none");
    flags.addDouble("metrics-interval", 10.0,
                    "counter sampling period in sim-ms (0 disables)");
    flags.addString("metrics-csv", "",
                    "save sampled-metrics summary to this CSV file");
    flags.addString("faults", "",
                    "fault-injection spec, e.g. '0.01' or "
                    "'alloc=0.01,gc=0.005' ('none' disables); a "
                    "faulted run that fails exits 0 with the failure "
                    "quarantined in the report");
    flags.addInt("retries", 0,
                 "extra attempts per faulty invocation (only "
                 "meaningful with --faults)");
    flags.parse(argc, argv);

    if (flags.positionals().size() != 1) {
        std::cerr << "usage: dacapo <benchmark> [flags]\nbenchmarks:";
        for (const auto &name : workloads::names())
            std::cerr << ' ' << name;
        std::cerr << "\n";
        return 2;
    }
    const auto &workload = workloads::byName(flags.positionals()[0]);

    if (flags.getBool("p")) {
        printNominalStats(workload);
        return 0;
    }

    harness::ExperimentOptions options;
    options.iterations = static_cast<int>(flags.getInt("n"));
    options.invocations =
        std::max(1, static_cast<int>(flags.getInt("invocations")));
    options.jobs = static_cast<int>(flags.getInt("jobs"));
    options.base_seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    options.trace_rate = workload.latency_sensitive;
    if (!flags.getString("faults").empty()) {
        std::string error;
        if (!fault::parseFaultSpec(flags.getString("faults"),
                                   options.faults, error))
            support::fatal("--faults: ", error);
    }
    options.retries =
        std::max(0, static_cast<int>(flags.getInt("retries")));

    const std::string trace_out = flags.getString("trace-out");
    const std::string metrics_csv = flags.getString("metrics-csv");
    std::unique_ptr<trace::TraceSink> sink;
    if (!trace_out.empty() || !metrics_csv.empty()) {
        trace::TraceSink::Options trace_options;
        trace_options.categories =
            trace::parseCategories(flags.getString("trace-categories"));
        sink = std::make_unique<trace::TraceSink>(trace_options);
        options.trace = sink.get();
        options.metrics_interval_ms =
            flags.getDouble("metrics-interval");
    }

    const std::string size = flags.getString("size");
    options.size = size == "small" ? workloads::SizeConfig::Small
        : size == "large"          ? workloads::SizeConfig::Large
        : size == "vlarge"         ? workloads::SizeConfig::VLarge
                                   : workloads::SizeConfig::Default;
    if (!workloads::sizeAvailable(workload, options.size))
        support::fatal(workload.name, " has no ", size, " size");

    const auto algorithm = gc::algorithmFromName(flags.getString("gc"));
    harness::Runner runner(options);

    std::cout << "===== DaCapo-sim " << workload.name << " starting ("
              << size << ", " << gc::algorithmName(algorithm)
              << ") =====\n";

    const auto set =
        flags.getDouble("heap-mb") > 0.0
            ? runner.runAtHeapMb(workload, algorithm,
                                 flags.getDouble("heap-mb"))
            : runner.run(workload, algorithm,
                         flags.getDouble("heap-factor"));
    const auto &run = set.runs.front();

    // Every file lands through one artifact sink rooted at the
    // working directory. A lost trace only warns; a lost CSV fails
    // the run (false here, exit 1 below).
    report::ArtifactSink artifacts(".");

    // Trace and metrics files are written on success *and* failure:
    // a timeline of a failing run is exactly what one debugs with.
    const auto writeObservability = [&] {
        if (sink && !trace_out.empty()) {
            if (trace::writeChromeTraceArtifact(*sink, artifacts,
                                                trace_out))
                std::cout << "saved trace to " << trace_out << "\n";
        }
        if (!metrics_csv.empty()) {
            if (!artifacts.writeTable(metrics_csv,
                                      trace::counterSummaryTable(*sink),
                                      report::Format::Csv))
                return false;
            std::cout << "saved metrics summary to " << metrics_csv
                      << "\n";
        }
        return true;
    };

    for (std::size_t i = 0; i < run.iterations.size(); ++i) {
        std::cout << "===== DaCapo-sim " << workload.name
                  << " iteration " << i + 1 << " in "
                  << support::fixed(run.iterations[i].wall() / 1e6, 0)
                  << " msec =====\n";
    }

    if (!run.usable()) {
        std::cout << "===== DaCapo-sim " << workload.name
                  << " FAILED ("
                  << (run.oom ? "OutOfMemoryError" : "timeout")
                  << ") =====\n";
        if (!run.faults.empty()) {
            std::cout << "===== DaCapo-sim " << workload.name
                      << " quarantined: " << run.faults.size()
                      << " injected fault(s), " << run.attempts
                      << " attempt(s), kind "
                      << harness::errorKind(run) << " =====\n";
        }
        // A failure under fault injection is the experiment working as
        // designed, not an error of the harness.
        return (writeObservability() && options.faults.enabled()) ? 0 : 1;
    }

    if (flags.getBool("verbose-gc")) {
        const double capacity =
            (flags.getDouble("heap-mb") > 0.0
                 ? flags.getDouble("heap-mb")
                 : flags.getDouble("heap-factor") * workload.gc.gmd_mb) *
            1024.0 * 1024.0;
        runtime::formatGcLog(run.log, capacity, std::cout);
    }

    std::cout << "===== DaCapo-sim " << workload.name << " PASSED in "
              << support::fixed(run.timed.wall / 1e6, 0)
              << " msec =====\n";

    if (workload.latency_sensitive) {
        const auto &timed = run.iterations.back();
        const auto requests = metrics::synthesizeRequests(
            run.rate_timeline, run.baseline_rate, workload.requests,
            timed.wall_begin, timed.wall_end,
            support::Rng(options.base_seed));
        auto simple = requests.simpleLatencies();
        auto metered = requests.meteredLatencies(100e6);
        std::cout << "===== DaCapo-sim simple latency: p50 "
                  << support::fixed(metrics::quantile(simple, 0.5) / 1e3,
                                    0)
                  << " usec, p99.9 "
                  << support::fixed(
                         metrics::quantile(simple, 0.999) / 1e3, 0)
                  << " usec =====\n"
                  << "===== DaCapo-sim metered latency (100ms): p50 "
                  << support::fixed(metrics::quantile(metered, 0.5) / 1e3,
                                    0)
                  << " usec, p99.9 "
                  << support::fixed(
                         metrics::quantile(metered, 0.999) / 1e3, 0)
                  << " usec =====\n";

        const std::string csv = flags.getString("latency-csv");
        if (!csv.empty()) {
            if (!artifacts.writeTable(csv,
                                      metrics::latencyTable(requests, 100e6),
                                      report::Format::Csv))
                return 1;
            std::cout << "saved raw latency data to " << csv << "\n";
        }
    }

    return writeObservability() ? 0 : 1;
}
