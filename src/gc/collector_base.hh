/**
 * @file
 * Shared plumbing for concrete collector implementations.
 *
 * CollectorBase owns the wiring every collector needs: the execution
 * context, the controller wake condition, the mutator stall condition,
 * shutdown handling, and small helpers shared by the cost models.
 */

#ifndef CAPO_GC_COLLECTOR_BASE_HH
#define CAPO_GC_COLLECTOR_BASE_HH

#include <string>

#include "gc/pause_protocol.hh"
#include "gc/tuning.hh"
#include "runtime/collector_runtime.hh"

namespace capo::gc {

/**
 * Base class for the concrete collectors in this module.
 */
class CollectorBase : public runtime::CollectorRuntime
{
  public:
    std::string_view name() const override { return name_; }
    int introducedYear() const override { return year_; }
    double barrierFactor() const override
    {
        return tuning_.barrier_factor;
    }
    double footprintFactor() const override { return footprint_; }

    void attach(const runtime::CollectorContext &context) override;
    void shutdown() override;
    void flushHotStats() override;

    const GcTuning &tuning() const { return tuning_; }

  protected:
    /**
     * @param footprint Physical/logical byte ratio for this collector
     *        on this workload (ZGC: the workload's GMU/GMD ratio).
     */
    CollectorBase(std::string name, int year, const GcTuning &tuning,
                  double footprint);

    /** Register agents etc.; called at the end of attach(). */
    virtual void onAttach() = 0;

    /** @{ Context shorthand (valid after attach()). The context holds
     *  non-owning pointers, so const collectors may still drive them. */
    sim::Engine &engine() const { return *ctx_.engine; }
    heap::HeapSpace &heap() const { return *ctx_.heap; }
    runtime::GcEventLog &log() const { return *ctx_.log; }
    runtime::World &world() const { return *ctx_.world; }
    const runtime::CollectorContext &context() const { return ctx_; }
    /** @} */

    /** Capacity minus the collector's reserved headroom. */
    double effectiveCapacity() const;

    /** Wake the controller (called from allocation requests). */
    void kickController();

    /** Wake every agent waiting on a collector-private condition
     *  (e.g.\ G1's marker). Pause/stall wakeups go through the pause
     *  protocol, never through this. */
    void notifyWaiters(sim::CondId cond);

    /**
     * The shared safepoint driver (see gc/pause_protocol.hh): every
     * stop-the-world pause is a beginPause()/finishPause() pair on
     * this object; collectors keep only trigger policy and cost
     * models.
     */
    PauseProtocol &pauseProtocol() { return pause_; }

    /**
     * Called by the protocol right after the world resumes, before
     * stalled mutators are released. Pacing collectors re-apply their
     * mutator speed factor here; the default does nothing.
     */
    virtual void onWorldResumed() {}

    /**
     * Consult the GcPhaseAbort fault site. Collectors call this at
     * phase-completion points — after the cycle is recorded, the world
     * resumed and stalled mutators notified — so an abort can never
     * strand a frozen world or a waiting mutator. Once fired, the
     * collector is poisoned: phaseAborted() stays true and request()
     * implementations fail subsequent allocations as OOM, which takes
     * the run down through the ordinary abort path.
     */
    void injectPhaseAbort();

    /** True once an injected phase abort has poisoned this collector. */
    bool phaseAborted() const { return phase_aborted_; }

    bool shutdownRequested() const { return shutdown_requested_; }

    sim::CondId wakeCond() const { return wake_cond_; }
    sim::CondId stallCond() const { return stall_cond_; }

  private:
    friend class PauseProtocol;  ///< Drives world/log/fault plumbing.

    std::string name_;
    int year_;
    GcTuning tuning_;
    double footprint_;

    runtime::CollectorContext ctx_;
    PauseProtocol pause_;
    sim::CondId wake_cond_ = sim::kInvalidCond;
    sim::CondId stall_cond_ = sim::kInvalidCond;
    bool shutdown_requested_ = false;
    bool phase_aborted_ = false;
};

} // namespace capo::gc

#endif // CAPO_GC_COLLECTOR_BASE_HH
