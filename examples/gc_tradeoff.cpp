/**
 * @file
 * The time-space tradeoff, per recommendation H1/H2: evaluate
 * collectors across a range of heap sizes expressed as multiples of
 * the workload's minimum heap, and report lower-bound overheads on
 * both measurement axes.
 *
 *   $ gc_tradeoff --workload h2 --factors 1.5,2,3,4,6
 */

#include <iostream>
#include <sstream>

#include "harness/lbo_experiment.hh"
#include "report/table.hh"
#include "support/flags.hh"
#include "support/strfmt.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

std::vector<double>
parseFactors(const std::string &text)
{
    std::vector<double> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(std::stod(item));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    support::Flags flags(
        "capo gc_tradeoff: LBO across heap sizes for one workload");
    flags.addString("workload", "h2", "benchmark to sweep");
    flags.addString("factors", "1.25,1.5,2,3,4,6",
                    "comma-separated heap factors (x min heap)");
    flags.addInt("invocations", 2, "invocations per configuration");
    flags.addInt("iterations", 3, "iterations per invocation");
    flags.parse(argc, argv);

    const auto &workload = workloads::byName(flags.getString("workload"));

    harness::LboSweepOptions sweep;
    sweep.factors = parseFactors(flags.getString("factors"));
    sweep.collectors = gc::allCollectors();  // incl. the GenZGC extension
    sweep.base.invocations = static_cast<int>(flags.getInt("invocations"));
    sweep.base.iterations = static_cast<int>(flags.getInt("iterations"));

    std::cout << "Time-space tradeoff for " << workload.name
              << " (min heap " << support::fixed(workload.gc.gmd_mb, 0)
              << " MB)\nLower-bound overheads; 1.000 = the distilled "
                 "ideal-GC baseline.\n\n";

    const auto result = harness::runLboSweep(workload, sweep);

    for (const char *axis : {"wall clock", "task clock"}) {
        const bool wall = std::string(axis) == "wall clock";
        std::cout << "\n" << axis << " overhead (LBO):\n";
        std::vector<std::string> header = {"collector"};
        for (double f : sweep.factors)
            header.push_back(support::fixed(f, 2) + "x");
        report::AsciiTable table(header);
        for (auto algorithm : sweep.collectors) {
            const std::string name = gc::algorithmName(algorithm);
            std::vector<std::string> row = {name};
            for (double f : sweep.factors) {
                if (!result.completedAt(name, f)) {
                    row.push_back("DNF");
                    continue;
                }
                const auto o = result.analysis.overhead(name, f);
                row.push_back(support::fixed(wall ? o.wall : o.cpu, 3));
            }
            table.row(row);
        }
        table.render(std::cout);
    }

    std::cout << "\nDNF = the collector cannot run this workload at "
                 "that heap size\n(how every LBO figure in the paper "
                 "treats missing points).\n";
    return 0;
}
