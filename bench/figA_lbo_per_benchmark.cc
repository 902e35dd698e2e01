/**
 * @file
 * Appendix LBO figures (Figures 7, 9, 11, ...): per-benchmark lower
 * bounds on collector overheads (wall clock and task clock) as a
 * function of heap size, for every workload in the suite.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "harness/lbo_experiment.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runFigALboPerBenchmark(report::ExperimentContext &context)
{
    harness::LboSweepOptions sweep;
    sweep.factors = {1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
    sweep.base = context.options;

    std::vector<std::string> selection = context.flags.positionals();
    if (selection.empty())
        selection = workloads::names();

    auto &curves = context.store.table(
        "lbo_per_benchmark",
        report::Schema{{"workload", report::Type::String},
                       {"collector", report::Type::String},
                       {"factor", report::Type::Double},
                       {"completed", report::Type::Bool},
                       {"wall_lbo", report::Type::Double},
                       {"cpu_lbo", report::Type::Double}});

    for (const auto &name : selection) {
        const auto &workload = workloads::byName(name);
        std::cerr << "  sweeping " << name << "...\n";
        const auto result = harness::runLboSweep(workload, sweep);

        std::cout << "\n## " << name << " (min heap "
                  << support::fixed(workload.gc.gmd_mb, 0) << " MB)\n";
        std::vector<std::string> header = {"collector", "axis"};
        for (double f : sweep.factors)
            header.push_back(support::fixed(f, 1) + "x");
        report::AsciiTable table(header);

        for (auto algorithm : sweep.collectors) {
            const std::string collector = gc::algorithmName(algorithm);
            for (const char *axis : {"wall", "cpu"}) {
                std::vector<std::string> row = {collector, axis};
                for (double f : sweep.factors) {
                    if (!result.completedAt(collector, f)) {
                        row.push_back("-");
                        continue;
                    }
                    const auto o =
                        result.analysis.overhead(collector, f);
                    row.push_back(bench::overhead(
                        std::string(axis) == "wall" ? o.wall : o.cpu));
                }
                table.row(row);
            }
            table.separator();
            for (double f : sweep.factors) {
                const bool done = result.completedAt(collector, f);
                const auto o =
                    done ? result.analysis.overhead(collector, f)
                         : metrics::LboOverhead{};
                curves.addRow({report::Value::str(name),
                               report::Value::str(collector),
                               report::Value::dbl(f),
                               report::Value::boolean(done),
                               report::Value::dbl(o.wall),
                               report::Value::dbl(o.cpu)});
            }
        }
        table.render(std::cout);
    }
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "figA_lbo_per_benchmark";
    e.title = "Per-benchmark LBO overheads";
    e.paper_ref = "appendix Figures 7, 9, 11, ...";
    e.description = "Appendix: per-benchmark LBO curves";
    e.quick_invocations = 2;
    e.quick_iterations = 2;
    e.run = runFigALboPerBenchmark;
    return e;
}()};

} // namespace
