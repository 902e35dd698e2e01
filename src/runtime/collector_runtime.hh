/**
 * @file
 * The runtime-facing garbage-collector interface.
 *
 * Concrete collectors live in src/gc; the runtime layer (mutators and
 * the execution orchestrator) programs against this interface so the
 * dependency points one way (gc depends on runtime, not vice versa).
 */

#ifndef CAPO_RUNTIME_COLLECTOR_RUNTIME_HH
#define CAPO_RUNTIME_COLLECTOR_RUNTIME_HH

#include <string_view>

#include "fault/fault.hh"
#include "heap/heap_space.hh"
#include "runtime/allocator.hh"
#include "runtime/gc_event_log.hh"
#include "runtime/pacing.hh"
#include "runtime/world.hh"
#include "sim/engine.hh"

namespace capo::runtime {

/**
 * Everything a collector needs from the execution it is attached to.
 */
struct CollectorContext
{
    sim::Engine *engine = nullptr;
    heap::HeapSpace *heap = nullptr;
    GcEventLog *log = nullptr;
    World *world = nullptr;

    /** Optional fault injector (GcPhaseAbort site); may be null. */
    fault::FaultInjector *fault = nullptr;

    /**
     * Optional pacing-policy override; null means the collector's
     * built-in static pacer (gc::StaticPacingPolicy). Must outlive
     * the run.
     */
    const PacingPolicy *pacing = nullptr;
};

/**
 * A garbage collector as seen by the managed runtime.
 */
class CollectorRuntime : public Allocator
{
  public:
    /** Short name ("G1", "ZGC", ...), used in reports. */
    virtual std::string_view name() const = 0;

    /** Year the design shipped in the JVM (for paper-style legends). */
    virtual int introducedYear() const = 0;

    /**
     * Physical bytes per logical heap byte. ZGC's lack of compressed
     * pointers surfaces here (cf.\ the paper's GMU/GMD statistics).
     */
    virtual double footprintFactor() const { return 1.0; }

    /**
     * Multiplier on mutator work from read/write barriers and
     * allocation fast paths. Deliberately *not* visible to the GC
     * event log: it is one of the woven-in costs that make LBO a lower
     * bound.
     */
    virtual double barrierFactor() const = 0;

    /** Wire the collector into an execution and register its agents. */
    virtual void attach(const CollectorContext &context) = 0;

    /** Ask controller agents to exit (benchmark finished or aborted). */
    virtual void shutdown() = 0;

    /** Land batched hot-tier telemetry. Called once per execution,
     *  after the engine stops for any reason (a run that hits the
     *  time limit never reaches shutdown()). */
    virtual void flushHotStats() {}
};

} // namespace capo::runtime

#endif // CAPO_RUNTIME_COLLECTOR_RUNTIME_HH
