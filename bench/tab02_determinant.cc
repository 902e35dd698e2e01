/**
 * @file
 * Table 2: the twelve most PCA-determinant nominal statistics and
 * their values for each of the 22 workloads — each cell showing the
 * benchmark's rank (1 = largest) and the concrete value.
 */

#include <algorithm>
#include <iostream>

#include "bench/bench_common.hh"
#include "stats/pca.hh"

using namespace capo;

namespace {

int
runTab02(report::ExperimentContext &context)
{
    const auto table = stats::shippedStats();

    std::vector<stats::MetricId> metrics;
    if (context.flags.getBool("paper-selection")) {
        for (const char *code : {"GLK", "GMU", "PET", "PFS", "PKP",
                                 "PWU", "UAA", "UAI", "UBP", "UBR",
                                 "UBS", "USF"}) {
            metrics.push_back(stats::metricFromCode(code));
        }
    } else {
        const auto pca = stats::runPca(table, 4);
        const auto ranked = pca.determinantMetrics(4);
        metrics.assign(ranked.begin(),
                       ranked.begin() + std::min<std::size_t>(
                                            12, ranked.size()));
    }

    auto &determinant = context.store.table(
        "determinant",
        report::Schema{{"workload", report::Type::String},
                       {"metric", report::Type::String},
                       {"rank", report::Type::Int},
                       {"value", report::Type::Double}});

    std::vector<std::string> header = {"Benchmark"};
    for (auto id : metrics)
        header.push_back(stats::metricCode(id));
    report::AsciiTable out(header);

    for (const auto &workload : table.workloads()) {
        std::vector<std::string> rank_row = {workload};
        std::vector<std::string> value_row = {""};
        for (auto id : metrics) {
            const auto value = table.get(workload, id);
            if (!value) {
                rank_row.push_back("-");
                value_row.push_back("");
                continue;
            }
            const auto rs = table.rankScore(workload, id);
            rank_row.push_back(std::to_string(rs.rank));
            value_row.push_back(support::general(*value, 4));
            determinant.addRow({report::Value::str(workload),
                                report::Value::str(
                                    stats::metricCode(id)),
                                report::Value::integer(rs.rank),
                                report::Value::dbl(*value)});
        }
        out.row(rank_row);
        out.row(value_row);
    }
    out.render(std::cout);

    std::cout << "\nEach benchmark cell: rank (top line; 1 = largest) "
                 "and value (bottom line),\nas in the paper's Table "
                 "2.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tab02_determinant";
    e.title = "Twelve most determinant nominal statistics";
    e.paper_ref = "Table 2";
    e.description =
        "Table 2: most determinant nominal statistics per workload";
    e.add_flags = [](support::Flags &flags) {
        flags.addBool("paper-selection", true,
                      "use the paper's Table 2 metric list; pass "
                      "--paper-selection=false to use our own PCA "
                      "ranking");
    };
    e.run = runTab02;
    return e;
}()};

} // namespace
