/**
 * @file
 * Extension experiment: open-loop traffic vs GC pacing as congestion
 * control. The paper (§4.4) measures user-experienced latency under
 * closed-loop DaCapo workloads; this extension attaches live
 * open-loop arrival agents (load/driver) and compares three regimes
 * per load factor: closed-loop post-hoc synthesis, the collector's
 * static free-heap pacer, and the utility-gradient feedback pacer
 * (load/pacer). The table makes two gaps directly visible: the
 * coordinated-omission gap (arrival- vs service-stamped p99) and the
 * pacing-policy gap (utility static vs adaptive).
 */

#include <iostream>
#include <sstream>

#include "bench/bench_common.hh"
#include "harness/openloop_experiment.hh"
#include "support/logging.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto begin = item.find_first_not_of(" \t");
        const auto end = item.find_last_not_of(" \t");
        if (begin != std::string::npos)
            out.push_back(item.substr(begin, end - begin + 1));
    }
    return out;
}

int
runExtOpenLoop(report::ExperimentContext &context)
{
    const auto &workload =
        workloads::byName(context.flags.getString("workload"));
    if (!workload.latency_sensitive)
        support::fatal("pick a latency-sensitive workload");

    harness::OpenLoopSweepOptions sweep;
    sweep.base = context.options;
    sweep.heap_factor = context.flags.getDouble("factor");
    sweep.lanes = static_cast<int>(context.flags.getInt("lanes"));

    sweep.load_factors.clear();
    for (const auto &item :
         splitList(context.flags.getString("rates"))) {
        const double factor = std::stod(item);
        if (factor <= 0.0)
            support::fatal("load factors must be positive");
        sweep.load_factors.push_back(factor);
    }
    if (sweep.load_factors.empty())
        support::fatal("empty --rates list");

    sweep.modes.clear();
    for (const auto &mode :
         splitList(context.flags.getString("modes"))) {
        if (mode != "closed" && mode != "static" && mode != "adaptive")
            support::fatal("unknown mode (closed|static|adaptive)");
        sweep.modes.push_back(mode);
    }
    if (sweep.modes.empty())
        support::fatal("empty --modes list");

    if (!load::tryArrivalKindFromName(
            context.flags.getString("arrival"), &sweep.arrival.kind))
        support::fatal("unknown arrival (poisson|onoff|diurnal)");

    const auto result =
        harness::runOpenLoopSweep({workload.name}, sweep);
    auto table = harness::openLoopTable(result);
    context.store.table("openloop", table.schema()) = std::move(table);
    harness::openLoopSummary(result, workload.name).render(std::cout);

    std::cout <<
        "\np99(arr) stamps latency from each request's arrival, so the\n"
        "gap to p99(srv) is the coordinated-omission error; 'closed'\n"
        "synthesizes traffic post hoc while 'static'/'adaptive' attach\n"
        "live open-loop agents under the named GC pacing policy.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "ext_openloop_pacing";
    e.title = "open-loop traffic vs feedback GC pacing";
    e.paper_ref = "Section 4.4's latency lens, as an extension";
    e.description =
        "Extension: closed vs open loop, static vs adaptive pacing";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.add_flags = [](support::Flags &flags) {
        flags.addDouble("factor", 2.0, "heap factor (x min heap)");
        flags.addString("workload", "lusearch",
                        "latency-sensitive workload to load");
        flags.addString("rates", "0.5,1.2",
                        "load factors (1.0 = lane saturation)");
        flags.addString("arrival", "poisson",
                        "arrival process (poisson|onoff|diurnal)");
        flags.addString("modes", "closed,static,adaptive",
                        "comparison modes to run");
        flags.addInt("lanes", 8, "open-loop service lanes");
    };
    e.run = runExtOpenLoop;
    return e;
}()};

} // namespace
