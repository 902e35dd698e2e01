/**
 * @file
 * Figure 1: lower bounds on the overheads of the five OpenJDK 21
 * production garbage collectors as a function of heap size — the
 * geometric mean over all 22 DaCapo Chopin benchmarks, on both the
 * wall-clock and total-CPU (task clock) axes. Points are only plotted
 * where the collector can run all 22 benchmarks to completion.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "support/ascii_chart.hh"
#include "harness/lbo_experiment.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

/** One full suite sweep, returning per-workload results. */
std::vector<harness::WorkloadLbo>
sweepSuite(const harness::LboSweepOptions &sweep)
{
    std::vector<harness::WorkloadLbo> per_workload;
    for (const auto &workload : workloads::suite()) {
        std::cerr << "  sweeping " << workload.name << "...\n";
        per_workload.push_back(harness::runLboSweep(workload, sweep));
    }
    return per_workload;
}

int
runFig01(report::ExperimentContext &context)
{
    harness::LboSweepOptions sweep;
    sweep.factors = {1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0};
    sweep.base = context.options;

    const auto points =
        harness::aggregateSuiteLbo(sweepSuite(sweep), sweep);

    auto &curve = context.store.table(
        "suite_lbo",
        report::Schema{{"collector", report::Type::String},
                       {"factor", report::Type::Double},
                       {"plotted", report::Type::Bool},
                       {"completed", report::Type::Uint},
                       {"wall_geomean", report::Type::Double},
                       {"cpu_geomean", report::Type::Double}});
    for (const auto &p : points) {
        curve.addRow({report::Value::str(p.collector),
                      report::Value::dbl(p.factor),
                      report::Value::boolean(p.plotted),
                      report::Value::uinteger(p.completed),
                      report::Value::dbl(p.wall_geomean),
                      report::Value::dbl(p.cpu_geomean)});
    }

    for (const char *axis : {"wall", "cpu"}) {
        const bool wall = std::string(axis) == "wall";
        std::cout << (wall ? "\n## (a) Wall-clock time overhead (LBO)\n"
                           : "\n## (b) Total CPU overhead "
                             "(TASK_CLOCK, LBO)\n");
        std::vector<std::string> header = {"collector", "year"};
        for (double f : sweep.factors)
            header.push_back(support::fixed(f, 2) + "x");
        report::AsciiTable table(header);

        for (auto algorithm : sweep.collectors) {
            const std::string name = gc::algorithmName(algorithm);
            auto collector = gc::makeCollector(algorithm);
            std::vector<std::string> row = {
                name, std::to_string(collector->introducedYear())};
            for (double f : sweep.factors) {
                const harness::SuiteLboPoint *match = nullptr;
                for (const auto &p : points) {
                    if (p.collector == name && p.factor == f)
                        match = &p;
                }
                if (match && match->plotted) {
                    row.push_back(bench::overhead(
                        wall ? match->wall_geomean : match->cpu_geomean));
                } else if (match && match->completed > 0) {
                    row.push_back("(" + std::to_string(match->completed) +
                                  "/22)");
                } else {
                    row.push_back("-");
                }
            }
            table.row(row);
        }
        table.render(std::cout);
    }

    // Render the two panels as charts (the shape is the result).
    for (const char *axis : {"wall", "cpu"}) {
        const bool wall = std::string(axis) == "wall";
        support::AsciiChart chart(68, 18);
        chart.setTitle(wall ? "\nFigure 1(a): wall-clock LBO vs heap size"
                            : "\nFigure 1(b): task-clock LBO vs heap size");
        chart.setXLabel("heap size (x minheap)");
        chart.setYLabel(wall ? "normalized time overhead (LBO)"
                             : "normalized CPU overhead (LBO)");
        chart.setYRange(1.0, 2.0);  // the paper's y limits
        for (auto algorithm : sweep.collectors) {
            const std::string name = gc::algorithmName(algorithm);
            std::vector<std::pair<double, double>> pts;
            for (const auto &p : points) {
                if (p.collector == name && p.plotted) {
                    pts.emplace_back(p.factor, wall ? p.wall_geomean
                                                    : p.cpu_geomean);
                }
            }
            chart.addSeries(name, std::move(pts));
        }
        std::cout << chart.render();
    }

    std::cout <<
        "\nPaper reference points: best-case wall overhead ~9 % (G1 and\n"
        "Parallel at 6x), best-case CPU overhead ~15 % (Serial); newer\n"
        "collectors cost more CPU (Serial < Parallel < G1 < Shen/ZGC);\n"
        "overheads exceed 2x at the smallest heaps; ZGC (no compressed\n"
        "pointers) cannot complete the whole suite below ~2-3x.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "fig01_lbo_geomean";
    e.title = "Lower-bound overheads, geomean over 22 workloads";
    e.paper_ref = "Figure 1(a,b)";
    e.description =
        "Figure 1: suite-wide lower-bound GC overheads vs heap size";
    e.run = runFig01;
    return e;
}()};

} // namespace
