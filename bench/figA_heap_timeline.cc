/**
 * @file
 * Appendix heap-timeline figures (Figures 8, 10, ...): heap size
 * after each garbage collection over the last benchmark iteration,
 * running with the default (G1) collector at 2x the minimum heap.
 */

#include <algorithm>
#include <iostream>

#include "bench/bench_common.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runFigAHeapTimeline(report::ExperimentContext &context)
{
    auto options = context.options;
    options.invocations = 1;
    harness::Runner runner(options);
    const auto buckets =
        static_cast<std::size_t>(context.flags.getInt("buckets"));

    std::vector<std::string> selection = context.flags.positionals();
    if (selection.empty())
        selection = workloads::names();

    auto &timeline = context.store.table(
        "heap_timeline",
        report::Schema{{"workload", report::Type::String},
                       {"gcs", report::Type::Uint},
                       {"bucket", report::Type::Uint},
                       {"mean_post_gc_mb", report::Type::Double}});

    std::vector<std::string> header = {"workload", "GCs"};
    for (std::size_t b = 0; b < buckets; ++b) {
        header.push_back(
            "t" + std::to_string((b + 1) * 100 / buckets) + "%");
    }
    report::AsciiTable table(header);

    for (const auto &name : selection) {
        const auto &workload = workloads::byName(name);
        const auto set = runner.run(workload, gc::Algorithm::G1, 2.0);
        if (!set.allCompleted()) {
            table.row({name, "-"});
            continue;
        }
        const auto &run = set.runs.front();
        const auto &timed = run.iterations.back();
        const double begin = timed.wall_begin;
        const double span = timed.wall_end - begin;

        // Mean post-GC heap (MB) per time bucket of the iteration.
        std::vector<double> sums(buckets, 0.0);
        std::vector<int> counts(buckets, 0);
        std::size_t total = 0;
        for (const auto &cycle : run.log.cycles()) {
            if (cycle.end < begin || cycle.end > timed.wall_end)
                continue;
            auto b = static_cast<std::size_t>(
                (cycle.end - begin) / span * buckets);
            b = std::min(b, buckets - 1);
            sums[b] += cycle.post_gc_bytes / (1024.0 * 1024.0);
            ++counts[b];
            ++total;
        }

        std::vector<std::string> row = {name, std::to_string(total)};
        for (std::size_t b = 0; b < buckets; ++b) {
            row.push_back(counts[b]
                              ? support::fixed(sums[b] / counts[b], 1)
                              : ".");
            timeline.addRow(
                {report::Value::str(name),
                 report::Value::uinteger(total),
                 report::Value::uinteger(b),
                 report::Value::dbl(
                     counts[b] ? sums[b] / counts[b] : 0.0)});
        }
        table.row(row);
    }
    table.render(std::cout);
    std::cout << "\nCells: mean post-GC heap (MB) in each tenth of the "
                 "timed iteration\n(the appendix plots each collection "
                 "as a point; '.' = no GC in bucket).\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "figA_heap_timeline";
    e.title = "Post-GC heap size over the last iteration";
    e.paper_ref = "appendix Figures 8, 10, ...";
    e.description =
        "Appendix: post-GC heap size over time (G1 at 2x heap)";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.add_flags = [](support::Flags &flags) {
        flags.addInt("buckets", 12, "time buckets per workload series");
    };
    e.run = runFigAHeapTimeline;
    return e;
}()};

} // namespace
