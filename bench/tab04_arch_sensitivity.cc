/**
 * @file
 * Section 6.4: architectural sensitivity. The paper analyzes four
 * workloads through their microarchitectural nominal statistics —
 * biojava and jython (high IPC, for different reasons) against h2o
 * and xalan (low IPC, memory-bound) — and cross-checks with
 * machine-knob sensitivity experiments (PMS, PLS, PFS). This binary
 * reproduces that analysis: shipped profile, measured counters from a
 * real (simulated) run, and measured sensitivity experiments.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "counters/perf_session.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

const char *kFocus[] = {"biojava", "jython", "xalan", "h2o"};

int
runTab04(report::ExperimentContext &context)
{
    auto options = context.options;
    options.invocations = 1;
    harness::Runner runner(options);

    auto &sensitivity = context.store.table(
        "arch_sensitivity",
        report::Schema{{"workload", report::Type::String},
                       {"completed", report::Type::Bool},
                       {"ipc", report::Type::Double},
                       {"udc", report::Type::Double},
                       {"ull", report::Type::Double},
                       {"udt", report::Type::Double},
                       {"usb", report::Type::Double},
                       {"usf", report::Type::Double},
                       {"ubs", report::Type::Double},
                       {"pms_pct", report::Type::Double},
                       {"pls_pct", report::Type::Double},
                       {"pfs_pct", report::Type::Double}});

    report::AsciiTable table({"workload", "IPC", "UDC", "ULL", "UDT",
                              "USB", "USF", "UBS", "PMS%", "PLS%",
                              "PFS%"});

    for (const char *name : kFocus) {
        const auto &workload = workloads::byName(name);

        // Measured counters from a run at 2x with the default G1.
        const auto set = runner.run(workload, gc::Algorithm::G1, 2.0);
        if (!set.allCompleted()) {
            table.row({name, "-", "-", "-", "-", "-", "-", "-", "-",
                       "-", "-"});
            sensitivity.addRow(
                {report::Value::str(name),
                 report::Value::boolean(false), report::Value::dbl(0),
                 report::Value::dbl(0), report::Value::dbl(0),
                 report::Value::dbl(0), report::Value::dbl(0),
                 report::Value::dbl(0), report::Value::dbl(0),
                 report::Value::dbl(0), report::Value::dbl(0),
                 report::Value::dbl(0)});
            continue;
        }
        const auto counters = counters::readCounters(
            set.runs.front(), workload, options.machine);

        // Sensitivity experiments: slow memory, small LLC, boost.
        auto timed = [&](counters::MachineConfig machine) {
            harness::ExperimentOptions vary = options;
            vary.machine = machine;
            harness::Runner vary_runner(vary);
            const auto runs =
                vary_runner.run(workload, gc::Algorithm::G1, 2.0);
            return runs.allCompleted()
                ? runs.runs.front().timed.wall
                : 0.0;
        };
        const double base_wall = set.runs.front().timed.wall;
        counters::MachineConfig m;
        m.slow_memory = true;
        const double pms =
            100.0 * (timed(m) / base_wall - 1.0);
        m = counters::MachineConfig::baseline();
        m.small_llc = true;
        const double pls = 100.0 * (timed(m) / base_wall - 1.0);
        m = counters::MachineConfig::baseline();
        m.freq_boost = true;
        const double pfs = 100.0 * (base_wall / timed(m) - 1.0);

        table.row({name, support::fixed(counters.uip() / 100.0, 2),
                   support::fixed(counters.udc(), 1),
                   support::fixed(counters.ull(), 0),
                   support::fixed(counters.udt(), 0),
                   support::fixed(counters.usb(), 1),
                   support::fixed(counters.usf(), 1),
                   support::fixed(counters.ubp(), 1),
                   support::fixed(pms, 1), support::fixed(pls, 1),
                   support::fixed(pfs, 1)});
        sensitivity.addRow(
            {report::Value::str(name), report::Value::boolean(true),
             report::Value::dbl(counters.uip() / 100.0),
             report::Value::dbl(counters.udc()),
             report::Value::dbl(counters.ull()),
             report::Value::dbl(counters.udt()),
             report::Value::dbl(counters.usb()),
             report::Value::dbl(counters.usf()),
             report::Value::dbl(counters.ubp()),
             report::Value::dbl(pms), report::Value::dbl(pls),
             report::Value::dbl(pfs)});
    }
    table.render(std::cout);

    std::cout <<
        "\nPaper reference (Section 6.4): biojava is compute-bound —\n"
        "top IPC (4.76), lowest cache misses, frequency-sensitive but\n"
        "memory-insensitive. jython's high IPC comes with heavy bad\n"
        "speculation (interpreter loop). xalan and h2o sit at the\n"
        "bottom of the IPC range with high cache/DTLB miss rates and\n"
        "memory-speed sensitivity. (Counters blend in the collector's\n"
        "memory-bound profile, so measured IPC sits slightly below the\n"
        "pure-application UIP statistic.)\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tab04_arch_sensitivity";
    e.title = "Architectural sensitivity case studies";
    e.paper_ref = "Section 6.4";
    e.description =
        "Section 6.4: architectural sensitivity of four workloads";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.run = runTab04;
    return e;
}()};

} // namespace
