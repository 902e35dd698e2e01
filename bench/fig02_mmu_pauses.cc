/**
 * @file
 * Figure 2: why GC pause time is a poor proxy for responsiveness
 * (Cheng & Blelloch). A train of short pauses can deny the mutator as
 * much CPU as one long pause over the windows users feel, even though
 * its "max pause" headline is 10x smaller. Demonstrated first on
 * synthetic pause trains, then on real pause logs from two collectors
 * on a simulated run.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "metrics/mmu.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

void
mmuRow(report::AsciiTable &table, report::ResultTable &rows,
       const std::string &label, const metrics::Mmu &mmu,
       const std::vector<double> &windows_ms)
{
    std::vector<std::string> row = {
        label, support::fixed(mmu.maxPause() / 1e6, 1)};
    for (double w : windows_ms) {
        const double utilization = mmu.at(w * 1e6);
        row.push_back(support::fixed(utilization, 3));
        rows.addRow({report::Value::str(label),
                     report::Value::dbl(mmu.maxPause() / 1e6),
                     report::Value::dbl(w),
                     report::Value::dbl(utilization)});
    }
    table.row(row);
}

int
runFig02(report::ExperimentContext &context)
{
    auto &mmu_table = context.store.table(
        "mmu",
        report::Schema{{"scenario", report::Type::String},
                       {"max_pause_ms", report::Type::Double},
                       {"window_ms", report::Type::Double},
                       {"mmu", report::Type::Double}});

    const std::vector<double> windows_ms = {1, 5, 20, 50, 110, 500,
                                            1000};
    std::vector<std::string> header = {"scenario", "max pause (ms)"};
    for (double w : windows_ms)
        header.push_back("MMU@" + support::fixed(w, 0) + "ms");
    report::AsciiTable table(header);

    // Synthetic: one 100 ms pause over a 1 s run.
    metrics::Mmu one({{450e6, 550e6}}, 0.0, 1e9);
    mmuRow(table, mmu_table, "one 100 ms pause", one, windows_ms);

    // Synthetic: ten 10 ms pauses with 1 ms gaps.
    std::vector<std::pair<double, double>> train;
    for (int i = 0; i < 10; ++i) {
        const double b = 450e6 + i * 11e6;
        train.emplace_back(b, b + 10e6);
    }
    metrics::Mmu many(train, 0.0, 1e9);
    mmuRow(table, mmu_table, "10 x 10 ms pauses", many, windows_ms);
    table.separator();

    // Real pause logs from a simulated run of lusearch at 2x.
    auto options = context.options;
    options.invocations = 1;
    harness::Runner runner(options);
    for (auto algorithm : {gc::Algorithm::Serial, gc::Algorithm::G1,
                           gc::Algorithm::Shenandoah}) {
        const auto set = runner.run(workloads::byName("lusearch"),
                                    algorithm, 2.0);
        if (!set.allCompleted())
            continue;
        const auto &run = set.runs.front();
        metrics::Mmu mmu(run.log.stwIntervals(), 0.0, run.wall);
        mmuRow(table, mmu_table,
               std::string("lusearch 2x / ") +
                   gc::algorithmName(algorithm),
               mmu, windows_ms);
    }

    table.render(std::cout);
    std::cout <<
        "\nThe pause train's max pause is 10x smaller, but its MMU over\n"
        "~100 ms windows collapses just as badly: never use GC pause\n"
        "time as a proxy for user-experienced latency (Recommendation "
        "L1).\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "fig02_mmu_pauses";
    e.title = "Pause times mislead; MMU does not";
    e.paper_ref = "Figure 2";
    e.description =
        "Figure 2: pause-time vs minimum mutator utilization";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.run = runFig02;
    return e;
}()};

} // namespace
