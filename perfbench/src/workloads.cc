#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "exec/pool.hh"
#include "harness/lbo_experiment.hh"
#include "harness/openloop_experiment.hh"
#include "metrics/latency.hh"
#include "metrics/mmu.hh"
#include "metrics/request_synth.hh"
#include "report/artifact.hh"
#include "report/codec.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/plans.hh"
#include "workloads/registry.hh"

using namespace capo;
using report::Type;
using report::Value;

namespace perfbench {

namespace {

/** The MMU window ladder, ms: 1 ms to 1 s, about ten windows a
 *  decade, chosen so that many windows are whole multiples of others
 *  (see the monotonicity check in pauseMmu). */
const std::vector<double> kMmuLadderMs = {
    1,   2,   3,   4,   5,   6,   8,   10,  12,  15,  20,  25,  30,  40,
    50,  60,  80,  100, 120, 150, 200, 250, 300, 400, 500, 600, 800, 1000};

/** The metered-latency windows of the paper's latency figures: 100 ms
 *  and full smoothing (0). */
const std::vector<double> kMeteredWindowsNs = {100e6, 0.0};

std::string
cellKey(const std::string &prefix, const std::string &workload,
        const std::string &collector, double factor)
{
    return prefix + "/" + workload + "/" + collector + "/" +
           report::encodeDouble(factor);
}

/** p50 <= p99 <= p99.9 on a paperPercentiles() curve. */
void
checkCurve(Output &out, const std::vector<std::pair<double, double>> &c,
           const std::string &what)
{
    // paperPercentiles(): 0, 50, 90, 99, 99.9, ...
    out.check(c.size() > 4 && c[1].second <= c[3].second &&
                  c[3].second <= c[4].second,
              what + ": p50 <= p99 <= p99.9");
}

void
lboSweep(Pass &pass)
{
    const Plan &plan = pass.plan;
    harness::LboSweepOptions sweep;
    sweep.factors = plan.factors;
    sweep.collectors = plan.collectors;
    sweep.base = plan.options;

    std::vector<harness::WorkloadLbo> per_workload;
    for (const auto &name : plan.programs) {
        const auto &workload = workloads::byName(name);
        per_workload.push_back(pass.harness(
            "harness.runLboSweep",
            [&] { return harness::runLboSweep(workload, sweep); }));
        pass.dispatches += per_workload.back().dispatches;
    }
    pass.cells = plan.programs.size() * sweep.collectors.size() *
                 sweep.factors.size();

    std::vector<harness::SuiteLboPoint> points;
    {
        Scope scope(pass.spans, "metrics.aggregateSuiteLbo");
        points = harness::aggregateSuiteLbo(per_workload, sweep);
    }
    // Per-cell overheads and baselines, in grid order.
    std::vector<metrics::LboOverhead> overheads;
    std::vector<std::pair<double, double>> baselines;
    {
        Scope scope(pass.spans, "metrics.lboOverhead");
        for (const auto &w : per_workload) {
            baselines.emplace_back(
                w.analysis.empty() ? 0.0 : w.analysis.baselineWall(),
                w.analysis.empty() ? 0.0 : w.analysis.baselineCpu());
            for (auto algorithm : sweep.collectors) {
                const std::string c = gc::algorithmName(algorithm);
                for (double f : sweep.factors) {
                    overheads.push_back(
                        w.completedAt(c, f) ? w.analysis.overhead(c, f)
                                            : metrics::LboOverhead{});
                }
            }
        }
    }

    Scope scope(pass.spans, "report.tables");
    Output &out = pass.out;
    out.table("lbo_workloads",
              report::Schema{{"workload", Type::String},
                             {"dispatches", Type::Uint},
                             {"baseline_wall_ns", Type::Double},
                             {"baseline_cpu_ns", Type::Double}});
    out.table("lbo_cells", report::Schema{{"workload", Type::String},
                                          {"collector", Type::String},
                                          {"factor", Type::Double},
                                          {"completed", Type::Bool},
                                          {"lbo_wall", Type::Double},
                                          {"lbo_cpu", Type::Double}});
    out.table("suite_lbo",
              report::Schema{{"collector", Type::String},
                             {"factor", Type::Double},
                             {"plotted", Type::Bool},
                             {"completed", Type::Uint},
                             {"wall_geomean", Type::Double},
                             {"cpu_geomean", Type::Double}});
    std::size_t cell = 0;
    for (std::size_t i = 0; i < per_workload.size(); ++i) {
        const auto &w = per_workload[i];
        out.open("lbo/" + w.workload);
        out.row("lbo_workloads",
                {Value::str(w.workload), Value::uinteger(w.dispatches),
                 Value::dbl(baselines[i].first),
                 Value::dbl(baselines[i].second)});
        for (auto algorithm : sweep.collectors) {
            const std::string c = gc::algorithmName(algorithm);
            for (double f : sweep.factors) {
                const auto &o = overheads[cell++];
                const bool done = w.completedAt(c, f);
                out.open(cellKey("lbo", w.workload, c, f));
                out.row("lbo_cells",
                        {Value::str(w.workload), Value::str(c),
                         Value::dbl(f), Value::boolean(done),
                         Value::dbl(o.wall), Value::dbl(o.cpu)});
                if (!done) {
                    out.dnf();
                    ++pass.cells_dnf;
                    continue;
                }
                out.check(o.wall >= 1.0 && o.cpu >= 1.0, "LBO >= 1");
            }
        }
    }
    for (const auto &p : points) {
        out.open("suite/" + p.collector + "/" +
                 report::encodeDouble(p.factor));
        out.row("suite_lbo",
                {Value::str(p.collector), Value::dbl(p.factor),
                 Value::boolean(p.plotted), Value::uinteger(p.completed),
                 Value::dbl(p.wall_geomean), Value::dbl(p.cpu_geomean)});
        if (p.plotted) {
            out.check(p.wall_geomean >= 1.0 && p.cpu_geomean >= 1.0,
                      "plotted LBO >= 1");
        }
    }
}

void
pauseMmu(Pass &pass)
{
    const Plan &plan = pass.plan;
    Output &out = pass.out;
    out.table("pause_runs", report::Schema{{"workload", Type::String},
                                           {"collector", Type::String},
                                           {"factor", Type::Double},
                                           {"completed", Type::Bool},
                                           {"dispatches", Type::Uint},
                                           {"wall_ns", Type::Double},
                                           {"pauses", Type::Uint},
                                           {"total_pause_ns", Type::Double},
                                           {"max_pause_ns", Type::Double}});
    out.table("mmu", report::Schema{{"workload", Type::String},
                                    {"collector", Type::String},
                                    {"factor", Type::Double},
                                    {"window_ms", Type::Double},
                                    {"mmu", Type::Double}});
    out.table("latency", report::Schema{{"workload", Type::String},
                                        {"collector", Type::String},
                                        {"factor", Type::Double},
                                        {"metric", Type::String},
                                        {"percentile", Type::Double},
                                        {"latency_ns", Type::Double}});

    const auto &ladder = kMmuLadderMs;
    harness::Runner runner(plan.options);
    double mmu_evals = 0, intervals = 0, interval_evals = 0, samples = 0;
    for (const auto &name : plan.programs) {
        const auto &workload = workloads::byName(name);
        for (auto algorithm : plan.collectors) {
            const std::string c = gc::algorithmName(algorithm);
            for (double f : plan.factors) {
                ++pass.cells;
                const auto set = pass.harness("harness.Runner.run", [&] {
                    return runner.run(workload, algorithm, f);
                });
                for (const auto &run : set.runs)
                    pass.dispatches += run.dispatches;

                out.open(cellKey("pause", name, c, f));
                if (!set.allCompleted()) {
                    out.row("pause_runs",
                            {Value::str(name), Value::str(c),
                             Value::dbl(f), Value::boolean(false),
                             Value::uinteger(0), Value::dbl(0.0),
                             Value::uinteger(0), Value::dbl(0.0),
                             Value::dbl(0.0)});
                    out.dnf();
                    ++pass.cells_dnf;
                    continue;
                }
                const auto &run = set.runs.front();

                std::vector<double> mmu_at;
                std::size_t pauses = 0;
                double total_pause = 0.0, max_pause = 0.0;
                {
                    Scope scope(pass.spans, "metrics.mmu");
                    auto stw = run.log.stwIntervals();
                    pauses = stw.size();
                    metrics::Mmu mmu(std::move(stw), 0.0, run.wall);
                    for (double w : ladder)
                        mmu_at.push_back(mmu.at(w * 1e6));
                    total_pause = mmu.totalPause();
                    max_pause = mmu.maxPause();
                }
                mmu_evals += static_cast<double>(ladder.size());
                intervals += static_cast<double>(pauses);
                interval_evals +=
                    static_cast<double>(pauses * ladder.size());

                const auto &timed = run.iterations.back();
                metrics::LatencyRecorder requests;
                {
                    Scope scope(pass.spans, "metrics.synthesizeRequests");
                    requests = metrics::synthesizeRequests(
                        run.rate_timeline, run.baseline_rate,
                        workload.requests, timed.wall_begin,
                        timed.wall_end,
                        support::Rng(plan.options.base_seed ^ 0xfacade));
                }
                std::vector<std::pair<std::string,
                                      std::vector<std::pair<double, double>>>>
                    curves;
                for (int k = -1;
                     k < static_cast<int>(kMeteredWindowsNs.size()); ++k) {
                    std::vector<double> latencies;
                    std::string metric = "simple";
                    if (k < 0) {
                        latencies = requests.simpleLatencies();
                    } else {
                        const double window = kMeteredWindowsNs[k];
                        metric = window > 0.0 ? "metered_100ms"
                                              : "metered_full";
                        Scope scope(pass.spans,
                                    "metrics.meteredLatencies");
                        latencies = requests.meteredLatencies(window);
                    }
                    samples += static_cast<double>(latencies.size());
                    Scope scope(pass.spans, "metrics.percentileCurve");
                    curves.emplace_back(
                        metric, metrics::percentileCurve(
                                    std::move(latencies)));
                }

                Scope scope(pass.spans, "report.tables");
                out.row("pause_runs",
                        {Value::str(name), Value::str(c), Value::dbl(f),
                         Value::boolean(true),
                         Value::uinteger(run.dispatches),
                         Value::dbl(run.wall),
                         Value::uinteger(pauses), Value::dbl(total_pause),
                         Value::dbl(max_pause)});
                // MMU is not monotone in the window in general, but a
                // window of k*w splits into k windows of w, so
                // MMU(k*w) >= MMU(w) while k*w fits in the run.
                bool in_range = true, monotone = true;
                for (std::size_t i = 0; i < ladder.size(); ++i) {
                    out.row("mmu", {Value::str(name), Value::str(c),
                                    Value::dbl(f), Value::dbl(ladder[i]),
                                    Value::dbl(mmu_at[i])});
                    in_range &= mmu_at[i] >= 0.0 && mmu_at[i] <= 1.0;
                    for (std::size_t j = i + 1; j < ladder.size(); ++j) {
                        if (std::fmod(ladder[j], ladder[i]) == 0.0 &&
                            ladder[j] * 1e6 <= run.wall)
                            monotone &= mmu_at[j] >= mmu_at[i] - 1e-12;
                    }
                }
                out.check(in_range, "MMU within [0, 1]");
                out.check(monotone,
                          "MMU non-decreasing over whole multiples of "
                          "the window");
                for (const auto &[metric, curve] : curves) {
                    for (const auto &[p, latency] : curve) {
                        out.row("latency",
                                {Value::str(name), Value::str(c),
                                 Value::dbl(f), Value::str(metric),
                                 Value::dbl(p), Value::dbl(latency)});
                    }
                    checkCurve(out, curve, metric);
                }
            }
        }
    }
    pass.layer["metrics.mmu_evals"] = mmu_evals;
    pass.layer["metrics.pause_intervals"] = intervals;
    pass.layer["metrics.interval_evals"] = interval_evals;
    pass.layer["metrics.latency_samples"] = samples;
}

void
openLoop(Pass &pass)
{
    const Plan &plan = pass.plan;
    Output &out = pass.out;
    out.table("openloop",
              report::Schema{{"workload", Type::String},
                             {"collector", Type::String},
                             {"mode", Type::String},
                             {"load", Type::Double},
                             {"completed", Type::Bool},
                             {"arrival_p50_ns", Type::Double},
                             {"arrival_p99_ns", Type::Double},
                             {"arrival_p999_ns", Type::Double},
                             {"service_p50_ns", Type::Double},
                             {"service_p99_ns", Type::Double},
                             {"service_p999_ns", Type::Double},
                             {"goodput_rps", Type::Double},
                             {"utility", Type::Double},
                             {"mean_pace", Type::Double},
                             {"shed", Type::Double},
                             {"pacer_digest", Type::String}});

    std::map<std::string, std::pair<double, double>> mode_time;  // s, cells
    double shed = 0.0;
    for (const auto &name : plan.programs) {
        for (auto algorithm : plan.collectors) {
            for (const auto &mode : plan.modes) {
                harness::OpenLoopSweepOptions sweep;
                sweep.base = plan.options;
                sweep.load_factors = plan.factors;
                sweep.collectors = {algorithm};
                sweep.modes = {mode};
                const auto result =
                    pass.harness("harness.runOpenLoopSweep", [&] {
                        return harness::runOpenLoopSweep({name}, sweep);
                    });
                pass.dispatches += result.dispatches;
                pass.cells += result.cells.size();
                mode_time[mode].first += pass.last_call_s;
                mode_time[mode].second +=
                    static_cast<double>(result.cells.size());

                Scope scope(pass.spans, "report.tables");
                for (const auto &cell : result.cells) {
                    out.open("openloop/" + cell.workload + "/" +
                             cell.collector + "/" + cell.mode + "/" +
                             report::encodeDouble(cell.load_factor));
                    out.row("openloop",
                            {Value::str(cell.workload),
                             Value::str(cell.collector),
                             Value::str(cell.mode),
                             Value::dbl(cell.load_factor),
                             Value::boolean(cell.ok),
                             Value::dbl(cell.arrival_p50_ns),
                             Value::dbl(cell.arrival_p99_ns),
                             Value::dbl(cell.arrival_p999_ns),
                             Value::dbl(cell.service_p50_ns),
                             Value::dbl(cell.service_p99_ns),
                             Value::dbl(cell.service_p999_ns),
                             Value::dbl(cell.goodput_rps),
                             Value::dbl(cell.utility),
                             Value::dbl(cell.mean_pace),
                             Value::dbl(cell.shed),
                             Value::str(cell.pacer_digest.empty()
                                            ? "-"
                                            : cell.pacer_digest)});
                    shed += cell.shed;
                    if (!cell.ok) {
                        out.dnf();
                        ++pass.cells_dnf;
                        continue;
                    }
                    out.check(cell.arrival_p50_ns <= cell.arrival_p99_ns &&
                                  cell.arrival_p99_ns <=
                                      cell.arrival_p999_ns,
                              "arrival p50 <= p99 <= p99.9");
                    out.check(cell.service_p50_ns <= cell.service_p99_ns &&
                                  cell.service_p99_ns <=
                                      cell.service_p999_ns,
                              "service p50 <= p99 <= p99.9");
                    out.check(cell.arrival_p99_ns >= cell.service_p99_ns,
                              "arrival p99 >= service p99");
                }
            }
        }
    }
    for (const auto &[mode, t] : mode_time) {
        if (mode != "closed" && t.second > 0)
            pass.layer["load." + mode + "_cell_ms"] = t.first / t.second * 1e3;
    }
    pass.layer["load.shed"] = shed;
}

/** Render every table to CSV, then land each through the sink. */
void
writeReport(Pass &pass, const std::string &out_dir)
{
    auto &store = pass.out.store();
    std::vector<std::pair<std::string, std::string>> payloads;
    {
        Scope scope(pass.spans, "report.render");
        for (const auto &name : store.names()) {
            std::ostringstream csv;
            store.find(name)->writeCsv(csv);
            payloads.emplace_back(
                pass.plan.workload + "/" + name + ".csv", csv.str());
        }
    }
    Scope scope(pass.spans, "report.write");
    report::ArtifactSink sink(out_dir);
    double bytes = 0.0;
    for (const auto &[path, payload] : payloads) {
        if (!sink.write(path,
                        [&](std::ostream &os) { os << payload; }))
            support::fatal("perfbench: could not write " + path);
        bytes += static_cast<double>(sink.artifacts().back().bytes);
    }
    pass.layer["report.bytes"] = bytes;
    pass.layer["report.rows"] =
        static_cast<double>(pass.out.rowCount());
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"lbo_sweep",
                                                   "pause_mmu",
                                                   "openloop"};
    return names;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed, bool reduced)
{
    using gc::Algorithm;
    Plan plan;
    plan.workload = workload;
    plan.options.base_seed = seed;
    plan.options.invocations = 1;
    plan.options.iterations = reduced ? 2 : 3;
    if (workload == "lbo_sweep") {
        for (const auto &d : workloads::suite())
            plan.programs.push_back(d.name);
        plan.collectors = gc::productionCollectors();
        plan.factors = {1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0};
        plan.options.invocations = reduced ? 2 : 3;
        plan.options.jobs = 2;
        if (reduced) {
            plan.programs.resize(3);
            plan.collectors = {Algorithm::Serial, Algorithm::G1};
            plan.factors = {1.0, 2.0, 6.0};
        }
    } else if (workload == "pause_mmu") {
        plan.programs = {"lusearch", "h2", "cassandra", "tomcat"};
        plan.collectors = {Algorithm::Serial, Algorithm::G1,
                           Algorithm::Shenandoah, Algorithm::Zgc};
        plan.factors = {1.5, 2.0, 3.0};
        plan.options.trace_rate = true;
        if (reduced) {
            plan.programs = {"lusearch"};
            plan.collectors = {Algorithm::G1, Algorithm::Shenandoah};
            plan.factors = {2.0};
        }
    } else if (workload == "openloop") {
        plan.programs = {"lusearch", "cassandra"};
        plan.collectors = {Algorithm::G1, Algorithm::Shenandoah};
        plan.modes = {"closed", "static", "adaptive"};
        plan.factors = {0.5, 0.9, 1.2};
        if (reduced) {
            plan.programs = {"lusearch"};
            plan.collectors = {Algorithm::G1};
            plan.factors = {0.5, 1.2};
        }
    } else {
        support::fatal("perfbench: unknown workload " + workload);
    }
    return plan;
}

void
setUp(const Plan &plan, SpanRecorder &spans)
{
    double footprint = 1.3;
    for (const auto &name : plan.programs) {
        Scope scope(spans, "workloads.makeSetup");
        const auto setup = workloads::makeSetup(
            workloads::byName(name), plan.options.machine,
            plan.options.size, plan.options.iterations);
        footprint = setup.pointer_footprint;
    }
    for (auto algorithm : plan.collectors) {
        Scope scope(spans, "gc.makeCollector");
        gc::makeCollector(algorithm, footprint);
    }
    // Size the shared pool before its first use so that the plan's
    // jobs is the whole parallelism: jobs - 1 workers plus the calling
    // thread. The default pool (nproc - 1 workers) lets nested fan-out
    // keep more threads busy than jobs, and on a host whose CPUs are
    // shared with other machines every extra thread is a straggler at
    // each join: lbo_sweep's per-pass wall then spread by 31 % (quartile
    // distance over median) against 9 % with two threads.
    setenv("CAPO_JOBS",
           std::to_string(std::max(1, plan.options.jobs - 1)).c_str(), 1);
    Scope scope(spans, "exec.poolStart");
    exec::Pool::shared();
}

void
runPass(Pass &pass, const std::string &out_dir)
{
    const auto &workload = pass.plan.workload;
    if (workload == "lbo_sweep")
        lboSweep(pass);
    else if (workload == "pause_mmu")
        pauseMmu(pass);
    else
        openLoop(pass);
    writeReport(pass, out_dir);
    pass.end_mono = monoNow();
    pass.end_cpu = cpuNow();
}

void
Pass::addHot(const trace::hot::Snapshot &delta)
{
    if (!hot_seen) {
        hot = delta;
        hot_seen = true;
        return;
    }
    for (std::size_t i = 0; i < trace::hot::kCounterCount; ++i)
        hot.counters[i] += delta.counters[i];
    for (std::size_t m = 0; m < hot.histograms.size(); ++m) {
        auto &h = hot.histograms[m];
        const auto &d = delta.histograms[m];
        h.count += d.count;
        h.sum += d.sum;
        for (std::size_t b = 0; b < h.buckets.size(); ++b)
            h.buckets[b] += d.buckets[b];
    }
}

} // namespace perfbench
