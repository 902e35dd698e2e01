/**
 * @file
 * Figure 5: per-benchmark LBO case studies — cassandra (task clock
 * diverges from wall clock as concurrent collectors soak up idle
 * cores) and lusearch (Shenandoah's pacing throttles the suite's
 * fastest allocator: very high wall overhead, lower task-clock
 * overhead).
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "harness/lbo_experiment.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

void
printCurves(const harness::WorkloadLbo &result,
            const std::vector<double> &factors, double gmd_mb)
{
    for (const char *axis : {"wall", "cpu"}) {
        const bool wall = std::string(axis) == "wall";
        std::cout << (wall ? "\n### Wall-clock overheads (LBO)\n"
                           : "\n### Total CPU overheads (task clock, "
                             "LBO)\n");
        std::vector<std::string> header = {"collector"};
        for (double f : factors) {
            header.push_back(support::fixed(f, 1) + "x (" +
                             support::fixed(f * gmd_mb, 0) + "MB)");
        }
        report::AsciiTable table(header);
        for (const auto &collector : result.analysis.collectors()) {
            std::vector<std::string> row = {collector};
            for (double f : factors) {
                if (!result.completedAt(collector, f)) {
                    row.push_back("-");
                    continue;
                }
                const auto o = result.analysis.overhead(collector, f);
                row.push_back(bench::overhead(wall ? o.wall : o.cpu));
            }
            table.row(row);
        }
        table.render(std::cout);
    }
}

int
runFig05(report::ExperimentContext &context)
{
    harness::LboSweepOptions sweep;
    sweep.factors = {1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0};
    sweep.base = context.options;

    auto &cases = context.store.table(
        "lbo_cases",
        report::Schema{{"workload", report::Type::String},
                       {"collector", report::Type::String},
                       {"factor", report::Type::Double},
                       {"completed", report::Type::Bool},
                       {"wall_lbo", report::Type::Double},
                       {"cpu_lbo", report::Type::Double}});

    for (const char *name : {"cassandra", "lusearch"}) {
        const auto &workload = workloads::byName(name);
        std::cout << "\n## " << name << "\n";
        const auto result = harness::runLboSweep(workload, sweep);
        printCurves(result, sweep.factors, workload.gc.gmd_mb);
        for (const auto &collector : result.analysis.collectors()) {
            for (double f : sweep.factors) {
                const bool done = result.completedAt(collector, f);
                const auto o =
                    done ? result.analysis.overhead(collector, f)
                         : metrics::LboOverhead{};
                cases.addRow({report::Value::str(name),
                              report::Value::str(collector),
                              report::Value::dbl(f),
                              report::Value::boolean(done),
                              report::Value::dbl(o.wall),
                              report::Value::dbl(o.cpu)});
            }
        }
    }

    std::cout <<
        "\nPaper reference: cassandra's task-clock overheads far exceed\n"
        "its wall-clock overheads (collectors absorb idle cores);\n"
        "lusearch under Shenandoah shows the opposite: pacing throttles\n"
        "the mutator (wall > 2x) while task clock stays lower.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "fig05_lbo_cases";
    e.title = "LBO case studies: cassandra and lusearch";
    e.paper_ref = "Figure 5(a-d)";
    e.description =
        "Figure 5: cassandra and lusearch LBO case studies";
    e.run = runFig05;
    return e;
}()};

} // namespace
