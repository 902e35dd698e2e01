/**
 * @file
 * Pause-protocol equivalence tests.
 *
 * The PauseProtocol refactor (DESIGN.md §14) rebuilt the collector
 * pause machinery — batched freeze/unfreeze, the fused TTSP-sleep +
 * pause-compute action, and the shared safepoint sequence — under the
 * hard constraint that it is *semantics-neutral*. These tests pin that
 * down three ways:
 *
 *  1. Golden capture: every collector's GcEventLog phase/cycle/stall
 *     stream, serialized with exact IEEE-754 bit patterns, must stay
 *     *byte-identical* to the stream recorded before the refactor
 *     (tests/gc/data/, captured from the three hand-rolled state
 *     machines). Unlike tests/golden, the comparison here is exact —
 *     not numeric-tolerant — because bit equality is the claim.
 *
 *  2. Determinism: a j1-vs-j8 LBO sweep through the batched
 *     freeze/unfreeze and fused-dispatch path must stay bitwise
 *     replayable, like every other path in the harness.
 *
 *  3. Unit semantics of the fused engine action (added with the
 *     refactor): sleepThenCompute must behave exactly like the
 *     sleep-then-dispatch-then-compute pair it replaces, minus one
 *     agent dispatch.
 *
 * Regenerating after an *intentional* behaviour change:
 *
 *     CAPO_REGEN_GOLDEN=1 ./build/tests/pause_protocol_test
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gc/factory.hh"
#include "harness/lbo_experiment.hh"
#include "metrics/lbo.hh"
#include "report/codec.hh"
#include "runtime/execution.hh"
#include "sim/agent.hh"
#include "sim/engine.hh"
#include "workloads/registry.hh"

#ifndef CAPO_PAUSE_GOLDEN_DIR
#error "pause_protocol_test needs CAPO_PAUSE_GOLDEN_DIR"
#endif

namespace capo {
namespace {

bool
regenerating()
{
    const char *env = std::getenv("CAPO_REGEN_GOLDEN");
    return env != nullptr && std::string(env) == "1";
}

std::string
goldenPath(const std::string &name)
{
    return std::string(CAPO_PAUSE_GOLDEN_DIR) + "/" + name;
}

/** "ZGC*" → "ZGC_": display names carry glob characters that have no
 *  business in file names (or gtest parameter names). */
std::string
fileSafeName(std::string name)
{
    for (auto &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

// ---------------------------------------------------------------------
// Golden capture of the GcEventLog streams.

runtime::ExecutionConfig
execConfig(double heap_mb)
{
    runtime::ExecutionConfig c;
    c.cpus = 32.0;
    c.heap_bytes = heap_mb * 1024.0 * 1024.0;
    c.survivor_fraction = 0.03;
    c.survivor_reference_bytes = heap_mb * 1024.0 * 1024.0 * 0.5;
    c.seed = 11;
    c.time_limit_sec = 400;
    return c;
}

runtime::MutatorPlan
mutatorPlan(double seconds, double alloc_gb)
{
    runtime::MutatorPlan p;
    p.iterations = 2;
    p.width = 8.0;
    p.work_per_iteration = seconds * 1e9 * p.width;
    p.alloc_per_iteration = alloc_gb * 1e9;
    return p;
}

heap::LiveSetModel
liveModel(double mb)
{
    heap::LiveSetModel m;
    m.base_bytes = mb * 1024.0 * 1024.0;
    m.buildup_fraction = 0.05;
    return m;
}

/**
 * The whole observable pause story of one execution, every double as
 * its exact bit pattern: phase windows (kind, begin, end, cpu),
 * collection cycles (kind, begin, end, traced, reclaimed, post-GC),
 * stall totals, and the headline wall/cpu/dispatch numbers.
 */
std::string
serializeStreams(const runtime::ExecutionResult &result)
{
    using report::encodeDouble;
    std::ostringstream out;
    out << "completed " << result.completed << " oom " << result.oom
        << "\n";
    out << "wall " << encodeDouble(result.wall) << " cpu "
        << encodeDouble(result.cpu) << " gc_cpu "
        << encodeDouble(result.gc_cpu) << "\n";
    out << "dispatches " << result.dispatches << " collections "
        << result.collections << "\n";
    for (const auto &p : result.log.phases()) {
        out << "phase " << runtime::phaseName(p.phase) << " "
            << encodeDouble(p.begin) << " " << encodeDouble(p.end)
            << " " << encodeDouble(p.cpu) << " " << p.open << "\n";
    }
    for (const auto &c : result.log.cycles()) {
        out << "cycle " << runtime::phaseName(c.kind) << " "
            << encodeDouble(c.begin) << " " << encodeDouble(c.end)
            << " " << encodeDouble(c.traced) << " "
            << encodeDouble(c.reclaimed) << " "
            << encodeDouble(c.post_gc_bytes) << "\n";
    }
    out << "stalls " << result.log.stallCount() << " "
        << encodeDouble(result.log.stallWall()) << "\n";
    return out.str();
}

void
expectByteIdenticalGolden(const std::string &name,
                          const std::string &actual)
{
    const auto path = goldenPath(name);
    if (regenerating()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        std::cerr << "regenerated " << path << "\n";
        return;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::ofstream save(path + ".actual",
                           std::ios::binary | std::ios::trunc);
        save << actual;
        FAIL() << "missing golden " << path
               << " — regen with CAPO_REGEN_GOLDEN=1";
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string expected = buffer.str();
    if (expected != actual) {
        std::ofstream save(path + ".actual",
                           std::ios::binary | std::ios::trunc);
        save << actual;
        FAIL() << name << ": GcEventLog stream is not byte-identical "
               << "to the pre-refactor capture (see " << path
               << ".actual). The pause machinery must be "
               << "semantics-neutral; if the change is intentional, "
               << "regen with CAPO_REGEN_GOLDEN=1.";
    }
}

std::string
captureStreams(gc::Algorithm algorithm, double heap_mb, double seconds,
               double alloc_gb, double live_mb)
{
    auto collector = gc::makeCollector(algorithm, 1.3);
    const auto result =
        runtime::runExecution(execConfig(heap_mb),
                              mutatorPlan(seconds, alloc_gb),
                              liveModel(live_mb), *collector);
    return serializeStreams(result);
}

class PauseGolden : public ::testing::TestWithParam<gc::Algorithm>
{
};

/** Roomy heap: the steady young/full (or cycle) cadence. */
TEST_P(PauseGolden, RoomyHeapStreamsUnchanged)
{
    const std::string name =
        "pause_" + fileSafeName(gc::algorithmName(GetParam())) +
        "_roomy.txt";
    expectByteIdenticalGolden(
        name, captureStreams(GetParam(), 128.0, 1.0, 2.0, 20.0));
}

/** Tight heap + fast allocation: stalls, degenerated cycles, pacing. */
TEST_P(PauseGolden, TightHeapStreamsUnchanged)
{
    const std::string name =
        "pause_" + fileSafeName(gc::algorithmName(GetParam())) +
        "_tight.txt";
    expectByteIdenticalGolden(
        name, captureStreams(GetParam(), 48.0, 0.5, 8.0, 20.0));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PauseGolden, ::testing::ValuesIn(gc::allCollectors()),
    [](const ::testing::TestParamInfo<gc::Algorithm> &info) {
        return fileSafeName(gc::algorithmName(info.param));
    });

/** G1 with marking pressure: nested young pauses inside concurrent
 *  marking plus the mixed-pause train — the overlap case the
 *  protocol's phase tokens must keep straight. */
TEST(PauseGoldenTest, G1MarkingStreamsUnchanged)
{
    expectByteIdenticalGolden(
        "pause_G1_marking.txt",
        captureStreams(gc::Algorithm::G1, 64.0, 1.0, 4.0, 30.0));
}

// ---------------------------------------------------------------------
// j1-vs-j8 determinism through the batched freeze/unfreeze and fused
// pause-dispatch path.

TEST(PauseDeterminismTest, LboSweepBitwiseAcrossJobs)
{
    harness::LboSweepOptions sweep;
    sweep.factors = {2.0, 3.0};
    sweep.collectors = gc::productionCollectors();
    sweep.base.iterations = 2;
    sweep.base.invocations = 2;
    sweep.base.time_limit_sec = 300;
    sweep.base.jobs = 1;

    const auto &fop = workloads::byName("fop");
    const auto serial = runLboSweep(fop, sweep);

    sweep.base.jobs = 8;
    const auto parallel = runLboSweep(fop, sweep);

    EXPECT_EQ(serial.dispatches, parallel.dispatches);
    EXPECT_TRUE(metrics::lboTable(serial.analysis)
                    .identical(metrics::lboTable(parallel.analysis)));
}

// ---------------------------------------------------------------------
// Unit semantics of the fused engine action: sleepThenCompute behaves
// exactly like the sleepUntil + compute pair it replaces — same finish
// time, same task clock, same engine event count — with one fewer
// agent resume.

class SleepComputeAgent : public sim::Agent
{
  public:
    explicit SleepComputeAgent(bool fused, double work)
        : fused_(fused), work_(work)
    {
    }

    std::string_view name() const override { return "sleep-compute"; }

    sim::Action
    resume(sim::Engine &engine) override
    {
        ++resumes_;
        if (resumes_ == 1) {
            if (fused_) {
                return sim::Action::sleepThenCompute(
                    engine.now() + 100.0, work_, 2.0);
            }
            return sim::Action::sleepUntil(engine.now() + 100.0);
        }
        if (!fused_ && resumes_ == 2 && work_ > 0.0)
            return sim::Action::compute(work_, 2.0);
        finish_ = engine.now();
        return sim::Action::exit();
    }

    bool fused_;
    double work_;
    int resumes_ = 0;
    sim::Time finish_ = -1.0;
};

TEST(FusedActionTest, MatchesSleepComputePairMinusOneResume)
{
    sim::Engine legacy_engine(8.0);
    SleepComputeAgent legacy(/*fused=*/false, 50.0);
    const auto legacy_id = legacy_engine.addAgent(&legacy);
    legacy_engine.run(1e6);

    sim::Engine fused_engine(8.0);
    SleepComputeAgent fused(/*fused=*/true, 50.0);
    const auto fused_id = fused_engine.addAgent(&fused);
    fused_engine.run(1e6);

    // Identical observable timeline: sleep to t=100, then 50 cpu-ns at
    // width 2 finishes at t=125 with 50 ns on the task clock.
    EXPECT_EQ(legacy.finish_, 125.0);
    EXPECT_EQ(fused.finish_, legacy.finish_);
    EXPECT_EQ(fused_engine.cpuTime(fused_id),
              legacy_engine.cpuTime(legacy_id));
    // The staged transition still counts as a delivered engine event
    // (event totals stay comparable across the refactor)...
    EXPECT_EQ(fused_engine.dispatchCount(),
              legacy_engine.dispatchCount());
    // ...but the agent is resumed one less time per pause.
    EXPECT_EQ(legacy.resumes_, 3);
    EXPECT_EQ(fused.resumes_, 2);
}

TEST(FusedActionTest, ZeroWorkStagedComputeDegeneratesToSleep)
{
    sim::Engine engine(8.0);
    SleepComputeAgent agent(/*fused=*/true, 0.0);
    const auto id = engine.addAgent(&agent);
    engine.run(1e6);

    // A zero-work staged compute falls back to an ordinary pending
    // dispatch at the timer's due time.
    EXPECT_EQ(agent.finish_, 100.0);
    EXPECT_EQ(agent.resumes_, 2);
    EXPECT_EQ(engine.cpuTime(id), 0.0);
}

} // namespace
} // namespace capo
