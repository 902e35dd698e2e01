/**
 * @file
 * Figure 4: principal components analysis of the 22 workloads with
 * respect to the nominal statistics available on every benchmark —
 * the paper's evidence that the suite is diverse. Prints variance
 * explained per component and each workload's PC1-PC4 coordinates
 * (the scatter data of Figures 4a/4b), plus the most determinant
 * metrics feeding Table 2.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "support/ascii_chart.hh"
#include "stats/pca.hh"

using namespace capo;

namespace {

int
runFig04(report::ExperimentContext &context)
{
    const auto table = stats::shippedStats();
    const auto pca = stats::runPca(table, 4);

    std::cout << "Complete metrics used: " << pca.metrics.size()
              << " (paper: 33)\n  ";
    for (auto id : pca.metrics)
        std::cout << stats::metricCode(id) << ' ';
    std::cout << "\n\nVariance explained:";
    double top4 = 0.0;
    for (std::size_t c = 0; c < pca.variance_fraction.size(); ++c) {
        std::cout << "  PC" << c + 1 << " "
                  << support::percent(pca.variance_fraction[c], 0);
        top4 += pca.variance_fraction[c];
    }
    std::cout << "  (top four: " << support::percent(top4, 0)
              << "; paper: 18/16/14/11 = 59 %)\n\n";

    auto &scores = context.store.table(
        "pca_scores",
        report::Schema{{"workload", report::Type::String},
                       {"pc1", report::Type::Double},
                       {"pc2", report::Type::Double},
                       {"pc3", report::Type::Double},
                       {"pc4", report::Type::Double}});

    report::AsciiTable scatter({"workload", "PC1", "PC2", "PC3", "PC4"});
    for (std::size_t w = 0; w < pca.workloads.size(); ++w) {
        std::vector<std::string> row = {pca.workloads[w]};
        for (int c = 0; c < 4; ++c)
            row.push_back(support::fixed(pca.scores[w][c], 2));
        scatter.row(row);
        scores.addRow({report::Value::str(pca.workloads[w]),
                       report::Value::dbl(pca.scores[w][0]),
                       report::Value::dbl(pca.scores[w][1]),
                       report::Value::dbl(pca.scores[w][2]),
                       report::Value::dbl(pca.scores[w][3])});
    }
    scatter.render(std::cout);

    // Scatter plots of (PC1, PC2) and (PC3, PC4), like Figure 4.
    for (int panel = 0; panel < 2; ++panel) {
        const int cx = panel == 0 ? 0 : 2;
        const int cy = cx + 1;
        support::AsciiChart chart(64, 16);
        chart.setConnect(false);
        chart.setTitle(support::concat("\nFigure 4(", panel ? "b" : "a",
                                       "): PC", cx + 1, " vs PC",
                                       cy + 1));
        chart.setXLabel(support::concat("PC", cx + 1));
        chart.setYLabel(support::concat("PC", cy + 1));
        // One series per workload so the legend names the points.
        for (std::size_t w = 0; w < pca.workloads.size(); ++w) {
            chart.addSeries(pca.workloads[w],
                            {{pca.scores[w][cx], pca.scores[w][cy]}});
        }
        std::cout << chart.render();
    }

    std::cout << "\nMost determinant metrics (top 12, feeding Table 2): ";
    const auto determinant = pca.determinantMetrics(4);
    for (std::size_t i = 0; i < 12 && i < determinant.size(); ++i)
        std::cout << stats::metricCode(determinant[i]) << ' ';
    std::cout << "\n(paper Table 2 lists: GLK GMU PET PFS PKP PWU UAA "
                 "UAI UBP UBR UBS USF)\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "fig04_pca";
    e.title = "Principal components analysis of the suite";
    e.paper_ref = "Figure 4(a,b)";
    e.description = "Figure 4: PCA of workload diversity";
    e.run = runFig04;
    return e;
}()};

} // namespace
