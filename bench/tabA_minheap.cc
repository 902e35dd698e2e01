/**
 * @file
 * Minimum-heap determination (methodology recommendation H2 and the
 * GMD/GMS/GML/GMU statistics): bisect the smallest heap in which each
 * workload completes, per collector, and compare the G1 result with
 * the shipped GMD.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "harness/minheap.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runTabAMinheap(report::ExperimentContext &context)
{
    std::vector<std::string> selection = context.flags.positionals();
    if (selection.empty())
        selection = workloads::names();
    const auto collectors = gc::productionCollectors();

    std::cerr << "  minheap grid: " << selection.size() << " x "
              << collectors.size() << " cells\n";
    const auto grid = harness::findMinHeapGrid(selection, collectors,
                                               context.options, 0.02);
    auto minheap = harness::minHeapTable(grid);
    context.store.table("minheap", minheap.schema()) = std::move(minheap);

    std::vector<std::string> header = {"workload", "GMD (shipped)"};
    for (auto algorithm : collectors)
        header.push_back(gc::algorithmName(algorithm));
    header.push_back("ZGC*/G1");
    report::AsciiTable table(header);
    for (const auto &name : selection) {
        std::vector<std::string> row = {
            name,
            support::fixed(workloads::byName(name).gc.gmd_mb, 0) +
                " MB"};
        for (auto algorithm : collectors) {
            const auto *found = grid.at(name, algorithm);
            row.push_back(found->converged
                              ? support::fixed(found->min_heap_mb, 1)
                              : "?");
        }
        const double g1 = grid.at(name, gc::Algorithm::G1)->min_heap_mb;
        const double zgc = grid.at(name, gc::Algorithm::Zgc)->min_heap_mb;
        row.push_back(g1 > 0.0 ? support::fixed(zgc / g1, 2) : "-");
        table.row(row);
    }
    table.render(std::cout);
    std::cout << "\nZGC runs without compressed pointers, so its "
                 "minimum heap exceeds G1's\nby roughly the workload's "
                 "GMU/GMD ratio.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tabA_minheap";
    e.title = "Minimum heap sizes by collector";
    e.paper_ref = "Section 4.2 / the GMD statistic";
    e.description =
        "Minimum heap per workload and collector (bisection)";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.run = runTabAMinheap;
    return e;
}()};

} // namespace
