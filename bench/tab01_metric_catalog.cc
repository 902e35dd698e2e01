/**
 * @file
 * Table 1: the nominal statistics used to characterize the DaCapo
 * Chopin workloads, with their group and description, plus the
 * suite-wide min/median/max of each (the summary columns of the
 * appendix tables).
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "stats/stat_table.hh"

using namespace capo;

namespace {

int
runTab01(report::ExperimentContext &context)
{
    const auto shipped = stats::shippedStats();

    auto &catalog = context.store.table(
        "metric_catalog",
        report::Schema{{"metric", report::Type::String},
                       {"group", report::Type::String},
                       {"available", report::Type::Uint},
                       {"min", report::Type::Double},
                       {"median", report::Type::Double},
                       {"max", report::Type::Double}});

    report::AsciiTable table({"Metric", "Grp", "Avail", "Min", "Median",
                              "Max", "Description"});
    for (const auto &info : stats::catalog()) {
        const auto range = shipped.range(info.id);
        std::string desc = info.description;
        if (desc.size() > 58)
            desc = desc.substr(0, 55) + "...";
        table.row({info.code, std::string(1, info.group),
                   std::to_string(range.available),
                   support::general(range.min, 4),
                   support::general(range.median, 4),
                   support::general(range.max, 4), desc});
        catalog.addRow(
            {report::Value::str(info.code),
             report::Value::str(std::string(1, info.group)),
             report::Value::uinteger(
                 static_cast<std::uint64_t>(range.available)),
             report::Value::dbl(range.min),
             report::Value::dbl(range.median),
             report::Value::dbl(range.max)});
    }
    table.render(std::cout);

    std::cout << "\n" << stats::catalog().size()
              << " statistics in 5 groups (Allocation, Bytecode, "
                 "Garbage collection,\nPerformance, "
                 "U-architecture); availability varies per workload "
                 "(tradebeans\nand tradesoap ship the fewest at 35, h2 "
                 "the most).\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tab01_metric_catalog";
    e.title = "Nominal statistics catalog";
    e.paper_ref = "Table 1";
    e.description = "Table 1: the nominal-statistic catalog";
    e.run = runTab01;
    return e;
}()};

} // namespace
