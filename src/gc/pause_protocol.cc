#include "gc/pause_protocol.hh"

#include "gc/collector_base.hh"
#include "runtime/world.hh"
#include "sim/engine.hh"
#include "support/logging.hh"

namespace capo::gc {

void
PauseProtocol::attach(CollectorBase &owner)
{
    owner_ = &owner;
    controller_ = sim::kInvalidAgent;
    token_ = 0;
    cpu_mark_ = 0.0;
    pause_begin_ = 0.0;
    stw_ = false;
}

sim::Action
PauseProtocol::beginPause(runtime::GcPhase kind, double work, double width)
{
    CAPO_ASSERT(!stw_, "pause already open");
    auto &engine = owner_->engine();
    owner_->world().stopTheWorld();
    stw_ = true;
    pause_begin_ = engine.now();
    token_ = owner_->log().beginPhase(pause_begin_, kind);
    // The dispatching agent is the pause controller; its task clock
    // over the pause window becomes the phase's CPU charge.
    controller_ = engine.currentAgent();
    cpu_mark_ = engine.cpuTime(controller_);
    return sim::Action::sleepThenCompute(
        pause_begin_ + owner_->tuning().ttsp_ns, work, width);
}

void
PauseProtocol::finishPause(const runtime::CycleRecord *cycle,
                           bool release_stalled)
{
    CAPO_ASSERT(stw_, "no pause open");
    auto &engine = owner_->engine();
    const sim::Time now = engine.now();
    owner_->log().endPhase(token_, now,
                           engine.cpuTime(controller_) - cpu_mark_);
    if (cycle != nullptr)
        owner_->log().recordCycle(*cycle);
    owner_->world().resumeTheWorld();
    stw_ = false;
    // Pacing reads post-cycle state and must re-apply before any
    // stalled mutator retries its allocation.
    owner_->onWorldResumed();
    pause_wall_ns_.observe(now - pause_begin_);
    pause_count_.add();
    if (release_stalled) {
        engine.notifyAll(owner_->stallCond());
        owner_->injectPhaseAbort();
    }
}

sim::Action
PauseProtocol::beginConcurrentPhase(runtime::GcPhase kind, double work,
                                    double width)
{
    CAPO_ASSERT(!stw_, "concurrent phase inside a pause");
    auto &engine = owner_->engine();
    token_ = owner_->log().beginPhase(engine.now(), kind);
    controller_ = engine.currentAgent();
    cpu_mark_ = engine.cpuTime(controller_);
    return sim::Action::compute(work, width);
}

void
PauseProtocol::closeConcurrentPhase()
{
    auto &engine = owner_->engine();
    owner_->log().endPhase(token_, engine.now(),
                           engine.cpuTime(controller_) - cpu_mark_);
}

void
PauseProtocol::flushHotStats()
{
    pause_wall_ns_.flush();
    pause_count_.flush();
}

} // namespace capo::gc
