/**
 * @file
 * perfbench_driver: one process, one pass of one benchmark workload.
 *
 *   perfbench_driver --workload lbo_sweep --seed 1 [--traced 1]
 *                    [--out-dir DIR] [--trace-out PREFIX] [--run-id N]
 *                    [--reduced 1] [--corrupt-record N]
 *                    [--setup-only 1]
 *
 * The process sets up (workload set-ups, collectors, pool), runs the
 * pass, writes its artifacts and prints one JSON object: host stamps
 * and costs, the digest and invariant violations of every output
 * record, and, when traced, the per-layer metrics. perfbench/run.py
 * launches it once per pass and aggregates.
 *
 * --setup-only 1 stops where the first harness call would begin and
 * prints only the host stamps, so a run can sample set-up time more
 * often than it runs passes.
 *
 * --traced 1 turns on the hot tier and the span recorder;
 * --trace-out then writes PREFIX.trace.json (Chrome trace events) and
 * PREFIX.selftime.tsv (per-layer self time).
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "exec/pool.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "trace/hot_metrics.hh"
#include "workloads.hh"

using namespace capo;
using namespace perfbench;

namespace {

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** The per-layer metrics of a traced pass (see BENCHMARK.json). */
std::map<std::string, double>
layerMetrics(const Pass &pass, const SpanRecorder &spans, double wall_s)
{
    namespace hot = trace::hot;
    std::map<std::string, double> m = pass.layer;
    const auto ms = [&](const char *name) {
        return spans.totals(name).seconds * 1e3;
    };
    const auto self = spans.layerSelfTimes();
    const auto share = [&](const char *layer) {
        const auto it = self.find(layer);
        return it == self.end() || wall_s <= 0.0 ? 0.0
                                                 : it->second / wall_s;
    };

    m["workloads.setup_ms"] = ms("workloads.makeSetup");
    m["gc.setup_ms"] = ms("gc.makeCollector");
    m["exec.pool_start_ms"] = ms("exec.poolStart");

    const auto harness = spans.layerTotals("harness");
    const auto &h = pass.hot;
    m["harness.calls"] = static_cast<double>(harness.count);
    m["harness.call_p50_ms"] = median(harness.durations) * 1e3;
    m["harness.call_max_ms"] =
        harness.durations.empty()
            ? 0.0
            : *std::max_element(harness.durations.begin(),
                                harness.durations.end()) *
                  1e3;
    m["harness.busy_s"] = harness.seconds;
    m["harness.cells"] = static_cast<double>(pass.cells);
    m["harness.cells_dnf"] = static_cast<double>(pass.cells_dnf);
    m["harness.invocations"] =
        static_cast<double>(h.counter(hot::InvocationsCompleted));
    m["harness.cell_setup_p99_us"] =
        h.histogram(hot::CellSetupNs).quantile(0.99) / 1e3;
    m["harness.wall_share"] = share("harness");

    // Threads that could run harness work: the caller, plus the pool's
    // workers when the plan fans out.
    const double jobs = pass.plan.options.jobs;
    const double threads =
        jobs > 1 ? exec::Pool::shared().workerCount() + 1.0 : 1.0;
    m["exec.jobs"] = jobs;
    m["exec.threads"] = threads;
    m["exec.cpu_util"] = harness.seconds > 0.0
                             ? harness.cpu_seconds /
                                   (jobs * harness.seconds)
                             : 0.0;
    m["exec.idle_s"] = std::max(
        0.0, threads * harness.seconds - harness.cpu_seconds);
    m["exec.steals"] = static_cast<double>(h.counter(hot::PoolSteals));

    const double events = static_cast<double>(h.counter(hot::SimEvents));
    const double timer_ops =
        static_cast<double>(h.counter(hot::TimerOps));
    m["sim.events"] = events;
    m["sim.host_ns_per_event"] =
        events > 0 ? harness.cpu_seconds * 1e9 / events : 0.0;
    m["sim.timer_ops"] = timer_ops;
    m["sim.timer_ops_per_event"] = events > 0 ? timer_ops / events : 0.0;
    m["sim.timer_depth_p99"] =
        h.histogram(hot::TimerQueueDepth).quantile(0.99);
    m["sim.dispatch_burst_p99"] =
        h.histogram(hot::DispatchBurst).quantile(0.99);
    m["gc.pauses"] = static_cast<double>(h.counter(hot::GcPauses));
    m["runtime.alloc_stalls"] =
        static_cast<double>(h.counter(hot::AllocStalls));

    for (const char *name :
         {"load.static_cell_ms", "load.adaptive_cell_ms", "load.shed",
          "metrics.mmu_evals", "metrics.pause_intervals",
          "metrics.interval_evals", "metrics.latency_samples",
          "report.rows", "report.bytes"})
        m.emplace(name, 0.0);  // absent on this workload: reads 0
    m["metrics.mmu_ms"] = ms("metrics.mmu");
    m["metrics.mmu_ns_per_interval_eval"] =
        m["metrics.interval_evals"] > 0
            ? m["metrics.mmu_ms"] * 1e6 / m["metrics.interval_evals"]
            : 0.0;
    m.erase("metrics.interval_evals");
    m["metrics.synth_ms"] = ms("metrics.synthesizeRequests");
    m["metrics.metered_ms"] = ms("metrics.meteredLatencies");
    m["metrics.quantile_ms"] = ms("metrics.percentileCurve");
    m["metrics.lbo_ms"] =
        ms("metrics.aggregateSuiteLbo") + ms("metrics.lboOverhead");
    m["metrics.wall_share"] = share("metrics");

    m["report.render_ms"] = ms("report.tables") + ms("report.render");
    m["report.write_ms"] = ms("report.write");
    m["report.wall_share"] = share("report");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const double main_mono = monoNow();
    support::Flags flags("one pass of one perfbench workload");
    flags.addString("workload", "", "lbo_sweep | pause_mmu | openloop");
    flags.addInt("seed", 1, "base seed of every simulated input");
    flags.addInt("traced", 0, "1: hot tier and spans on");
    flags.addInt("reduced", 0, "1: shrink every grid axis (tests)");
    flags.addInt("run-id", 0, "run id stamped on every span");
    flags.addInt("corrupt-record", -1,
                 "flip one bit of this output record (check self-test)");
    flags.addInt("setup-only", 0,
                 "1: set up, print the stamps and exit");
    flags.addString("out-dir", ".", "artifact directory");
    flags.addString("trace-out", "",
                    "traced pass: write PREFIX.trace.json and "
                    "PREFIX.selftime.tsv");
    flags.parse(argc, argv);

    const bool traced = flags.getInt("traced") != 0;
    const auto plan =
        makePlan(flags.getString("workload"),
                 static_cast<std::uint64_t>(flags.getInt("seed")),
                 flags.getInt("reduced") != 0);

    trace::hot::setEnabled(traced);
    SpanRecorder spans(traced,
                       static_cast<std::uint64_t>(flags.getInt("run-id")));
    {
        Scope scope(spans, "bench.setup");
        setUp(plan, spans);
    }
    if (flags.getInt("setup-only") != 0) {
        std::printf("{\"main_mono\":%s,\"first_call_mono\":%s}\n",
                    num(main_mono).c_str(), num(monoNow()).c_str());
        return 0;
    }

    Output out(flags.getInt("corrupt-record"));
    Pass pass(plan, spans, out);
    {
        Scope scope(spans, "bench.pass");
        runPass(pass, flags.getString("out-dir"));
    }
    const double wall_s = pass.end_mono - pass.first_call_mono;
    const double cpu_s = pass.end_cpu - pass.first_call_cpu;

    const std::string trace_out = flags.getString("trace-out");
    if (traced && !trace_out.empty()) {
        if (!spans.writeChromeTrace(trace_out + ".trace.json") ||
            !spans.writeSelfTimeTable(trace_out + ".selftime.tsv",
                                      wall_s))
            support::fatal("perfbench: could not write " + trace_out);
    }

#ifdef CAPO_DISABLE_ASSERTS
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    std::string json = "{";
    json += "\"workload\":" + jsonString(plan.workload);
    json += ",\"seed\":" + std::to_string(plan.options.base_seed);
    json += ",\"traced\":" + std::string(traced ? "true" : "false");
    json += ",\"main_mono\":" + num(main_mono);
    json += ",\"first_call_mono\":" + num(pass.first_call_mono);
    json += ",\"wall_s\":" + num(wall_s);
    json += ",\"cpu_s\":" + num(cpu_s);
    json += ",\"peak_rss_mb\":" + num(peakRssMb());
    json += ",\"dispatches\":" + std::to_string(pass.dispatches);
    json += ",\"jobs\":" + std::to_string(plan.options.jobs);
    json += ",\"pool_workers\":" +
            std::to_string(exec::Pool::shared().workerCount());
    json += ",\"build\":{\"type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
            ",\"lto\":" + (PERFBENCH_LTO ? "true" : "false") +
            ",\"asserts\":" + (asserts ? "true" : "false") +
            ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) + "}";
    json += ",\"records\":[";
    for (std::size_t i = 0; i < out.records().size(); ++i) {
        const auto &r = out.records()[i];
        json += i ? ",[" : "[";
        json += jsonString(r.key);
        json += ",";
        json += jsonString(r.digest());
        json += r.dnf ? ",true,[" : ",false,[";
        for (std::size_t v = 0; v < r.violations.size(); ++v) {
            json += v ? "," : "";
            json += jsonString(r.violations[v]);
        }
        json += "]]";
    }
    json += "]";
    if (traced) {
        json += ",\"layers\":{";
        bool first = true;
        for (const auto &[name, value] : layerMetrics(pass, spans, wall_s)) {
            json += first ? "" : ",";
            json += jsonString(name);
            json += ":";
            json += num(value);
            first = false;
        }
        json += "}";
    }
    json += "}\n";
    std::fputs(json.c_str(), stdout);
    return 0;
}
