#include "gc/collector_base.hh"

#include "support/logging.hh"

namespace capo::gc {

CollectorBase::CollectorBase(std::string name, int year,
                             const GcTuning &tuning, double footprint)
    : name_(std::move(name)), year_(year), tuning_(tuning),
      footprint_(footprint)
{
    CAPO_ASSERT(footprint >= 1.0, "footprint factor must be >= 1");
}

void
CollectorBase::attach(const runtime::CollectorContext &context)
{
    CAPO_ASSERT(context.engine && context.heap && context.log &&
                context.world, "incomplete collector context");
    ctx_ = context;
    // Collectors are pooled per worker and re-attached for every
    // invocation; everything mutable resets here (and in onAttach for
    // the subclasses) so a reused collector is indistinguishable from
    // a fresh one — the dirty-reuse determinism test pins this down.
    shutdown_requested_ = false;
    phase_aborted_ = false;
    wake_cond_ = engine().makeCondition(name_ + ".wake");
    stall_cond_ = engine().makeCondition(name_ + ".stall");
    pause_.attach(*this);
    onAttach();
}

void
CollectorBase::shutdown()
{
    shutdown_requested_ = true;
    engine().notifyAll(wake_cond_);
}

void
CollectorBase::flushHotStats()
{
    pause_.flushHotStats();
}

void
CollectorBase::notifyWaiters(sim::CondId cond)
{
    engine().notifyAll(cond);
}

double
CollectorBase::effectiveCapacity() const
{
    return ctx_.heap->capacity() * (1.0 - tuning_.reserve_fraction);
}

void
CollectorBase::kickController()
{
    engine().notifyAll(wake_cond_);
}

void
CollectorBase::injectPhaseAbort()
{
    if (phase_aborted_ || ctx_.fault == nullptr)
        return;
    if (ctx_.fault->fire(fault::Site::GcPhaseAbort, engine().now()))
        phase_aborted_ = true;
}

} // namespace capo::gc
