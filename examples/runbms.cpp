/**
 * @file
 * runbms: execute an experiment definition file, the way the paper's
 * artifact drives running-ng ("running runbms ./results
 * ./experiments/lbo.yml"). Results print as tables and, with
 * --csv <dir>, also land as CSV files for offline analysis — written
 * through the report layer's ArtifactSink, so CSV output is buffered,
 * retried and quarantined exactly like every other capo artifact.
 *
 *   $ runbms myplan.capo [--csv results/] [--trace-out sweep.json]
 *
 * Example definition (see harness/plan_file.hh for the format):
 *
 *     experiment   = lbo
 *     workloads    = lusearch, cassandra
 *     collectors   = production
 *     heap_factors = 1.5, 2, 3, 6
 *     invocations  = 3
 */

#include <filesystem>
#include <iostream>
#include <memory>

#include "exec/seed.hh"
#include "fault/fault.hh"
#include "harness/checkpoint.hh"
#include "harness/latency_experiment.hh"
#include "harness/lbo_experiment.hh"
#include "harness/minheap.hh"
#include "harness/openloop_experiment.hh"
#include "harness/plan_file.hh"
#include "metrics/export.hh"
#include "report/artifact.hh"
#include "report/codec.hh"
#include "support/flags.hh"
#include "support/strfmt.hh"
#include "support/table.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics_registry.hh"
#include "trace/sink.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

/**
 * Hash every parameter that shapes sweep results, for the checkpoint
 * journal header. Deliberately excludes jobs (results are identical at
 * any --jobs, so a resumed sweep may change it) and trace/CSV output
 * paths (they shape where results land, not what they are).
 */
std::uint64_t
configHash(const harness::ExperimentPlan &plan)
{
    std::string canon = harness::planKindName(plan.kind);
    for (const auto &name : plan.workloads)
        canon += "|w:" + name;
    for (auto algorithm : plan.collectors)
        canon += std::string("|c:") + gc::algorithmName(algorithm);
    for (double f : plan.heap_factors)
        canon += "|f:" + report::encodeDouble(f);
    canon += "|i:" + std::to_string(plan.options.iterations);
    canon += "|n:" + std::to_string(plan.options.invocations);
    canon += "|z:" + std::to_string(static_cast<int>(plan.options.size));
    canon += "|s:" + std::to_string(plan.options.base_seed);
    canon += "|r:" + std::to_string(plan.options.retries);
    canon += "|fs:" + std::to_string(plan.options.faults.seed);
    for (std::size_t i = 0; i < fault::kSiteCount; ++i) {
        canon +=
            "|fr:" + report::encodeDouble(plan.options.faults.rates[i]);
    }
    if (plan.kind == harness::ExperimentPlan::Kind::OpenLoop) {
        canon += "|a:";
        canon += load::arrivalKindName(plan.arrival.kind);
        canon += "|br:" + report::encodeDouble(plan.arrival.burst_ratio);
        canon += "|bd:" + report::encodeDouble(plan.arrival.burst_duty);
        for (double f : plan.load_factors)
            canon += "|lf:" + report::encodeDouble(f);
        for (const auto &mode : plan.pacing_modes)
            canon += "|pm:" + mode;
    }
    return exec::hashString(canon);
}

/** Print quarantined cells, one row per failed invocation. */
void
reportErrors(const std::vector<harness::CellError> &errors)
{
    if (errors.empty())
        return;
    std::cout << "\n## quarantined cells (" << errors.size()
              << " failed invocation(s))\n";
    support::TextTable table;
    table.columns({"workload", "collector", "heap", "invocation",
                   "attempts", "kind"},
                  {support::TextTable::Align::Left,
                   support::TextTable::Align::Left,
                   support::TextTable::Align::Right,
                   support::TextTable::Align::Right,
                   support::TextTable::Align::Right,
                   support::TextTable::Align::Left});
    for (const auto &e : errors) {
        const std::string heap =
            e.heap_factor > 0.0
                ? support::fixed(e.heap_factor, 2) + "x"
                : support::fixed(e.heap_mb, 1) + "MB";
        table.row({e.workload, e.collector, heap,
                   std::to_string(e.invocation),
                   std::to_string(e.attempts), e.kind});
    }
    table.render(std::cout);
}

void
runLbo(const harness::ExperimentPlan &plan, bool want_csv,
       report::ArtifactSink &sink, harness::CheckpointJournal *journal)
{
    harness::LboSweepOptions sweep;
    sweep.factors = plan.heap_factors;
    sweep.collectors = plan.collectors;
    sweep.base = plan.options;
    sweep.journal = journal;

    std::vector<harness::CellError> errors;
    for (const auto &name : plan.workloads) {
        std::cerr << "  lbo sweep: " << name << "\n";
        const auto result =
            harness::runLboSweep(workloads::byName(name), sweep);
        if (result.restored_cells > 0) {
            std::cerr << "    restored " << result.restored_cells
                      << " cell(s) from checkpoint\n";
        }
        errors.insert(errors.end(), result.errors.begin(),
                      result.errors.end());

        std::cout << "\n## " << name << " (wall / cpu LBO)\n";
        support::TextTable table;
        std::vector<std::string> header = {"collector"};
        for (double f : sweep.factors)
            header.push_back(support::fixed(f, 2) + "x");
        std::vector<support::TextTable::Align> aligns(
            header.size(), support::TextTable::Align::Right);
        aligns[0] = support::TextTable::Align::Left;
        table.columns(header, aligns);
        for (auto algorithm : sweep.collectors) {
            const std::string collector = gc::algorithmName(algorithm);
            std::vector<std::string> row = {collector};
            for (double f : sweep.factors) {
                if (!result.completedAt(collector, f)) {
                    row.push_back("DNF");
                    continue;
                }
                const auto o = result.analysis.overhead(collector, f);
                row.push_back(support::fixed(o.wall, 2) + "/" +
                              support::fixed(o.cpu, 2));
            }
            table.row(row);
        }
        table.render(std::cout);

        if (want_csv) {
            sink.write("lbo_" + name + ".csv",
                       [&](std::ostream &out) {
                           metrics::exportLboCsv(result.analysis, out);
                       });
        }
    }
    reportErrors(errors);
}

void
runLatency(const harness::ExperimentPlan &plan, bool want_csv,
           report::ArtifactSink &sink,
           harness::CheckpointJournal *journal)
{
    harness::LatencySweepOptions sweep;
    sweep.factors = plan.heap_factors;
    sweep.collectors = plan.collectors;
    sweep.base = plan.options;
    sweep.journal = journal;
    // Raw per-request CSVs cannot restore from journaled quantiles,
    // so CSV-producing latency sweeps re-run every cell
    // (deterministically) while still journaling for table-only
    // resumes — the same bypass traced LBO sweeps use.
    sweep.want_raw = want_csv;

    const auto result =
        harness::runLatencySweep(plan.workloads, sweep);
    if (result.restored_cells > 0) {
        std::cerr << "  restored " << result.restored_cells
                  << " cell(s) from checkpoint\n";
    }

    std::size_t index = 0;
    for (const auto &name : plan.workloads) {
        for (double factor : plan.heap_factors) {
            std::cout << "\n## " << name << " at "
                      << support::fixed(factor, 1) << "x [ms]\n";
            support::TextTable table;
            table.columns({"collector", "p50", "p99", "p99(arr)",
                           "p99.9", "p50(met)", "p99.9(met)"},
                          {support::TextTable::Align::Left,
                           support::TextTable::Align::Right,
                           support::TextTable::Align::Right,
                           support::TextTable::Align::Right,
                           support::TextTable::Align::Right,
                           support::TextTable::Align::Right,
                           support::TextTable::Align::Right});
            for (std::size_t c = 0; c < plan.collectors.size();
                 ++c, ++index) {
                const auto &cell = result.cells[index];
                if (!cell.ok) {
                    table.row({cell.collector, "DNF", "-", "-", "-",
                               "-", "-"});
                    continue;
                }
                table.row({cell.collector,
                           support::fixed(cell.p50_ns / 1e6, 3),
                           support::fixed(cell.p99_ns / 1e6, 3),
                           support::fixed(cell.intended_p99_ns / 1e6,
                                          3),
                           support::fixed(cell.p999_ns / 1e6, 3),
                           support::fixed(cell.metered_p50_ns / 1e6,
                                          3),
                           support::fixed(cell.metered_p999_ns / 1e6,
                                          3)});

                if (want_csv && cell.have_raw) {
                    sink.write(
                        "latency_" + name + "_" + cell.collector +
                            "_" + support::fixed(factor, 1) + "x.csv",
                        [&](std::ostream &out) {
                            metrics::exportLatencyCsv(
                                cell.requests,
                                sweep.metered_window_ns, out);
                        });
                }
            }
            table.render(std::cout);
        }
    }
}

void
runOpenLoop(const harness::ExperimentPlan &plan, bool want_csv,
            report::ArtifactSink &sink,
            harness::CheckpointJournal *journal)
{
    harness::OpenLoopSweepOptions sweep;
    sweep.load_factors = plan.load_factors;
    sweep.collectors = plan.collectors;
    sweep.modes = plan.pacing_modes;
    sweep.heap_factor =
        plan.heap_factors.empty() ? 2.0 : plan.heap_factors.front();
    sweep.arrival = plan.arrival;
    sweep.base = plan.options;
    sweep.journal = journal;

    const auto result =
        harness::runOpenLoopSweep(plan.workloads, sweep);
    if (result.restored_cells > 0) {
        std::cerr << "  restored " << result.restored_cells
                  << " cell(s) from checkpoint\n";
    }

    std::string csv_rows =
        "workload,collector,mode,load_factor,ok,arrival_p50_ms,"
        "arrival_p99_ms,arrival_p999_ms,service_p50_ms,service_p99_ms,"
        "service_p999_ms,goodput_rps,utility,shed,mean_pace\n";
    std::size_t index = 0;
    for (const auto &name : plan.workloads) {
        std::cout << "\n## " << name << " open-loop ("
                  << load::arrivalKindName(plan.arrival.kind)
                  << " arrivals) [ms]\n";
        support::TextTable table;
        table.columns({"collector", "mode", "load", "p50(arr)",
                       "p99(arr)", "p99(srv)", "goodput", "utility",
                       "pace"},
                      {support::TextTable::Align::Left,
                       support::TextTable::Align::Left,
                       support::TextTable::Align::Right,
                       support::TextTable::Align::Right,
                       support::TextTable::Align::Right,
                       support::TextTable::Align::Right,
                       support::TextTable::Align::Right,
                       support::TextTable::Align::Right,
                       support::TextTable::Align::Right});
        for (std::size_t c = 0; c < plan.collectors.size(); ++c) {
            for (const auto &mode : plan.pacing_modes) {
                for (double factor : plan.load_factors) {
                    const auto &cell = result.cells[index++];
                    if (!cell.ok) {
                        table.row({cell.collector, cell.mode,
                                   support::fixed(factor, 2), "DNF",
                                   "-", "-", "-", "-", "-"});
                    } else {
                        table.row(
                            {cell.collector, cell.mode,
                             support::fixed(factor, 2),
                             support::fixed(cell.arrival_p50_ns / 1e6,
                                            3),
                             support::fixed(cell.arrival_p99_ns / 1e6,
                                            3),
                             support::fixed(cell.service_p99_ns / 1e6,
                                            3),
                             support::fixed(cell.goodput_rps, 1),
                             support::fixed(cell.utility, 2),
                             support::fixed(cell.mean_pace, 2)});
                    }
                    csv_rows += cell.workload + "," + cell.collector +
                                "," + cell.mode + "," +
                                support::fixed(cell.load_factor, 3) +
                                "," + (cell.ok ? "1" : "0") + "," +
                                support::fixed(
                                    cell.arrival_p50_ns / 1e6, 4) +
                                "," +
                                support::fixed(
                                    cell.arrival_p99_ns / 1e6, 4) +
                                "," +
                                support::fixed(
                                    cell.arrival_p999_ns / 1e6, 4) +
                                "," +
                                support::fixed(
                                    cell.service_p50_ns / 1e6, 4) +
                                "," +
                                support::fixed(
                                    cell.service_p99_ns / 1e6, 4) +
                                "," +
                                support::fixed(
                                    cell.service_p999_ns / 1e6, 4) +
                                "," +
                                support::fixed(cell.goodput_rps, 2) +
                                "," + support::fixed(cell.utility, 4) +
                                "," + support::fixed(cell.shed, 0) +
                                "," +
                                support::fixed(cell.mean_pace, 4) +
                                "\n";
                }
            }
        }
        table.render(std::cout);
    }

    if (want_csv) {
        sink.write("openloop.csv",
                   [&](std::ostream &out) { out << csv_rows; });
    }
}

void
runMinHeap(const harness::ExperimentPlan &plan, bool want_csv,
           report::ArtifactSink &sink,
           harness::CheckpointJournal *journal)
{
    support::TextTable table;
    std::vector<std::string> header = {"workload"};
    for (auto algorithm : plan.collectors)
        header.push_back(gc::algorithmName(algorithm));
    std::vector<support::TextTable::Align> aligns(
        header.size(), support::TextTable::Align::Right);
    aligns[0] = support::TextTable::Align::Left;
    table.columns(header, aligns);

    std::cerr << "  minheap grid: " << plan.workloads.size() << " x "
              << plan.collectors.size() << " cells\n";
    const auto grid = harness::findMinHeapGrid(
        plan.workloads, plan.collectors, plan.options, 0.02, journal);

    std::string csv_rows = "workload,collector,min_heap_mb\n";
    for (const auto &name : plan.workloads) {
        std::vector<std::string> row = {name};
        for (auto algorithm : plan.collectors) {
            const auto *found = grid.at(name, algorithm);
            row.push_back(support::fixed(found->min_heap_mb, 1));
            csv_rows += name;
            csv_rows += ",";
            csv_rows += gc::algorithmName(algorithm);
            csv_rows += ",";
            csv_rows += support::fixed(found->min_heap_mb, 2) + "\n";
        }
        table.row(row);
    }
    table.render(std::cout);

    if (want_csv) {
        sink.write("minheap.csv",
                   [&](std::ostream &out) { out << csv_rows; });
    }
}

} // namespace

int
main(int argc, char **argv)
{
    support::Flags flags("capo runbms: execute an experiment "
                         "definition file (running-ng equivalent)");
    flags.addString("csv", "", "directory for CSV result files "
                               "(must exist; empty = tables only)");
    flags.addString("trace-out", "",
                    "write a Chrome/Perfetto trace-event JSON file "
                    "(overrides the plan's trace_out key)");
    flags.addString("trace-categories", "",
                    "categories to trace (overrides the plan)");
    flags.addDouble("metrics-interval", -1.0,
                    "counter sampling period in sim-ms (overrides the "
                    "plan; 0 disables)");
    flags.addInt("jobs", -1,
                 "cells/invocations to run concurrently (overrides the "
                 "plan's jobs key; 0 = all hardware threads); results "
                 "are identical for any value");
    flags.addAlias("j", "jobs");
    flags.addString("faults", "",
                    "fault-injection spec, e.g. '0.01' or "
                    "'alloc=0.01,gc=0.005' (overrides the plan's "
                    "faults key; 'none' disables)");
    flags.addInt("retries", -1,
                 "extra attempts per faulty invocation (overrides the "
                 "plan; only meaningful with faults)");
    flags.addString("checkpoint", "",
                    "checkpoint journal path (overrides the plan's "
                    "checkpoint key); completed cells append here");
    flags.addBool("resume", false,
                  "resume from an existing checkpoint journal: "
                  "journaled cells restore instead of re-running, and "
                  "output is bit-identical to an uninterrupted run");
    flags.parse(argc, argv);

    if (flags.positionals().size() != 1) {
        std::cerr << "usage: runbms <plan-file> [--csv dir] "
                     "[--trace-out file.json] [--checkpoint file "
                     "[--resume]]\n";
        return 2;
    }
    harness::ExperimentPlan plan;
    try {
        plan = harness::loadPlan(flags.positionals()[0]);
    } catch (const harness::ParseError &e) {
        std::cerr << "runbms: " << e.what() << "\n";
        return 2;
    }
    if (!flags.getString("trace-out").empty())
        plan.trace_out = flags.getString("trace-out");
    if (!flags.getString("trace-categories").empty()) {
        plan.trace_categories =
            trace::parseCategories(flags.getString("trace-categories"));
    }
    if (flags.getDouble("metrics-interval") >= 0.0) {
        plan.options.metrics_interval_ms =
            flags.getDouble("metrics-interval");
    }
    if (flags.getInt("jobs") >= 0)
        plan.options.jobs = static_cast<int>(flags.getInt("jobs"));
    if (!flags.getString("faults").empty()) {
        std::string error;
        if (!fault::parseFaultSpec(flags.getString("faults"),
                                   plan.options.faults, error)) {
            std::cerr << "runbms: --faults: " << error << "\n";
            return 2;
        }
    }
    if (flags.getInt("retries") >= 0)
        plan.options.retries = static_cast<int>(flags.getInt("retries"));
    if (!flags.getString("checkpoint").empty())
        plan.checkpoint = flags.getString("checkpoint");

    std::unique_ptr<harness::CheckpointJournal> journal;
    if (!plan.checkpoint.empty()) {
        std::string error;
        journal = harness::CheckpointJournal::open(
            plan.checkpoint, configHash(plan), flags.getBool("resume"),
            error);
        if (!journal) {
            std::cerr << "runbms: checkpoint: " << error << "\n";
            return 2;
        }
        if (flags.getBool("resume")) {
            std::cerr << "  resume: " << journal->entryCount()
                      << " journaled cell(s) in " << plan.checkpoint
                      << "\n";
        }
    } else if (flags.getBool("resume")) {
        std::cerr << "runbms: --resume needs a checkpoint path (plan "
                     "key or --checkpoint)\n";
        return 2;
    }

    std::unique_ptr<trace::TraceSink> sink;
    trace::MetricsRegistry registry;
    if (!plan.trace_out.empty()) {
        trace::TraceSink::Options trace_options;
        trace_options.categories = plan.trace_categories;
        sink = std::make_unique<trace::TraceSink>(trace_options);
        plan.options.trace = sink.get();
        plan.options.metrics = &registry;
    }

    std::cout << "# runbms: " << harness::planKindName(plan.kind)
              << " over " << plan.workloads.size() << " workload(s), "
              << plan.collectors.size() << " collector(s)\n";

    const std::string csv_dir = flags.getString("csv");
    const bool want_csv = !csv_dir.empty();
    report::ArtifactSink artifacts(want_csv ? csv_dir : ".");
    artifacts.armFaults(plan.options.faults, plan.options.base_seed);
    artifacts.setRetries(plan.options.retries);

    switch (plan.kind) {
      case harness::ExperimentPlan::Kind::Lbo:
        runLbo(plan, want_csv, artifacts, journal.get());
        break;
      case harness::ExperimentPlan::Kind::Latency:
        runLatency(plan, want_csv, artifacts, journal.get());
        break;
      case harness::ExperimentPlan::Kind::MinHeap:
        runMinHeap(plan, want_csv, artifacts, journal.get());
        break;
      case harness::ExperimentPlan::Kind::OpenLoop:
        runOpenLoop(plan, want_csv, artifacts, journal.get());
        break;
    }

    // A finished resume has re-confirmed every journaled cell, so the
    // journal can shed duplicate records and dead bytes: rewrite it as
    // one record per cell (atomic tmp+rename; see checkpoint.hh).
    if (journal && flags.getBool("resume")) {
        if (journal->compact()) {
            std::cerr << "  compacted checkpoint "
                      << plan.checkpoint << " ("
                      << journal->entryCount() << " cell(s))\n";
        }
    }

    if (sink) {
        // Through the armed artifact sink, so trace export shares the
        // CSVs' retry/quarantine/fault-injection path. The path is
        // absolutized so the sink root does not relocate it.
        if (trace::writeChromeTraceArtifact(
                *sink, artifacts,
                std::filesystem::absolute(plan.trace_out).string()))
            std::cout << "saved trace to " << plan.trace_out << "\n";
        if (want_csv) {
            artifacts.write("metrics.csv", [&](std::ostream &out) {
                metrics::exportMetricsCsv(registry, out);
            });
        }
    }

    for (const auto &record : artifacts.quarantined()) {
        std::cerr << "  lost artifact: " << record.path << " ("
                  << record.error << ")\n";
    }
    return 0;
}
