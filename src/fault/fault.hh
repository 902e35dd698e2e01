/**
 * @file
 * Deterministic fault injection: the substrate for robustness testing
 * of the whole experiment stack.
 *
 * Production-scale sweeps hit allocation failures, OOM kills, timer
 * jitter and dying workers; capo must degrade gracefully rather than
 * lose an experiment. This module injects those faults *inside* the
 * deterministic simulation envelope: every fault decision is a pure
 * function of (plan seed, cell seed, attempt, site, per-site sequence
 * number) — never of wall-clock time, thread identity or execution
 * order — so a faulty run replays bit-identically at any --jobs, and
 * a failure found in CI reproduces from its seed alone.
 *
 * Sites (see Site) name the places the stack consults the injector:
 * allocation grants in the mutator (simulated OOM kill, allocation
 * stall overrun), collector phase completion (phase abort → the
 * collector declares the run lost), timer scheduling in the engine
 * (perturbed due times), worker death in the exec pool (a worker
 * stops taking tasks; results must be unaffected), artifact
 * write/flush failures in the report layer's ArtifactSink (retried,
 * then quarantined — a sweep never dies because a CSV would not
 * land), and connection drops/short reads in the serve layer's wire
 * protocol (retried per attempt, then the connection is quarantined —
 * the server never crashes because a socket misbehaved).
 */

#ifndef CAPO_FAULT_FAULT_HH
#define CAPO_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/seed.hh"
#include "trace/sink.hh"

namespace capo::fault {

/** A named fault-injection site. */
enum class Site : std::uint8_t {
    AllocOom,      ///< Granted allocation converted to a simulated OOM.
    AllocStall,    ///< Granted allocation pays a stall-overrun sleep.
    GcPhaseAbort,  ///< Collector phase completes, then aborts the run.
    TimerPerturb,  ///< Timer due times get deterministic jitter.
    WorkerDeath,   ///< Pool worker stops taking tasks (exec layer).
    ArtifactIo,    ///< Artifact write/flush fails (report layer).
    ConnIo,        ///< Connection drop/short read (serve layer).
};

/** Number of sites (array sizing). */
constexpr std::size_t kSiteCount = 7;

/** Short machine name of a site ("alloc-oom", "timer", ...). */
const char *siteName(Site site);

/**
 * What to inject and how often. Rates are per *opportunity* (one
 * allocation grant, one phase completion, one timer): probability in
 * [0, 1] that the site fires when consulted.
 */
struct FaultPlan
{
    /** Per-site firing rates; all zero disables injection entirely. */
    std::array<double, kSiteCount> rates{};

    /** Extra seed salt so fault schedules can vary independently of
     *  the experiment's base seed. */
    std::uint64_t seed = 0;

    /** Magnitude of TimerPerturb jitter (ns, symmetric). */
    double timer_jitter_ns = 50e3;

    /** Duration of an injected allocation-stall overrun (ns). */
    double stall_overrun_ns = 5e6;

    double
    rate(Site site) const
    {
        return rates[static_cast<std::size_t>(site)];
    }

    void
    setRate(Site site, double value)
    {
        rates[static_cast<std::size_t>(site)] = value;
    }

    /** Does any site have a nonzero rate? */
    bool enabled() const;
};

/**
 * Parse a fault specification into @p plan.
 *
 * Accepted forms:
 *  - "0.01"                        every site at rate 0.01
 *  - "alloc=0.01,gc=0.005"        per-site rates (unlisted stay 0)
 *  - "none" / "" / "0"            disabled
 *
 * Site names: alloc (alloc-oom), stall (alloc-stall), gc (gc-abort),
 * timer, worker, artifact (artifact-io), conn (conn-io). Returns
 * false and sets
 * @p error on malformed input (never exits: plan files surface this
 * as a ParseError).
 */
bool parseFaultSpec(const std::string &spec, FaultPlan &plan,
                    std::string &error);

/**
 * Seed salt for one backend of a serve fleet: a pure function of the
 * fleet's plan seed and the backend's id string, so each backend draws
 * an independent conn_io schedule from one plan — "kill backend b2"
 * is reproducible from (seed, "b2") alone, at any worker count and
 * any balancing strategy.
 */
inline std::uint64_t
backendSeed(std::uint64_t plan_seed, const std::string &backend_id)
{
    return exec::seedCombine(exec::mix64(plan_seed ^ 0xf1ee7b5eULL),
                             exec::hashString(backend_id));
}

/** One injected fault, recorded for quarantine reports and tests. */
struct InjectedFault
{
    Site site = Site::AllocOom;
    std::uint64_t sequence = 0;  ///< Site-local opportunity index.
    double sim_time_ns = 0.0;    ///< Engine clock when it fired.
};

/**
 * Per-invocation fault decision engine.
 *
 * One injector is created per execution attempt, seeded from the
 * plan's salt, the invocation's cellSeed and the attempt index. Each
 * site keeps its own opportunity counter; a decision draws
 * splitmix64(state ^ mix(site, counter)) and fires when the resulting
 * uniform deviate falls under the site's rate. Consultation order
 * within one simulation is deterministic (the engine is serial), so
 * the whole fault schedule replays exactly.
 */
class FaultInjector
{
  public:
    /**
     * @param plan Rates and magnitudes (copied).
     * @param cell_seed The invocation's exec::cellSeed.
     * @param attempt Retry attempt index (0 = first try); salted into
     *        the stream so a retried invocation sees fresh faults.
     */
    FaultInjector(const FaultPlan &plan, std::uint64_t cell_seed,
                  int attempt = 0);

    /** Is this site's rate nonzero (worth consulting at all)? */
    bool
    armed(Site site) const
    {
        return plan_.rate(site) > 0.0;
    }

    /**
     * Consult the site: advance its opportunity counter and decide.
     * When the site fires, the decision is recorded (see injected()),
     * a trace instant is emitted and the site's hot-tier counter
     * ("fault.injected.<site>") bumps.
     *
     * @param now_ns Current engine clock, for the fault record and
     *        trace stamp (pass 0 outside a simulation).
     */
    bool fire(Site site, double now_ns);

    /**
     * TimerPerturb helper: when the site fires, return a deterministic
     * signed jitter in [-timer_jitter_ns, +timer_jitter_ns]; else 0.
     */
    double timerJitter(double now_ns);

    /** Injected stall-overrun duration (ns). */
    double stallOverrunNs() const { return plan_.stall_overrun_ns; }

    /** Every fault injected so far, in firing order. */
    const std::vector<InjectedFault> &injected() const
    {
        return injected_;
    }

    /** Opportunities consulted at @p site so far. */
    std::uint64_t
    opportunities(Site site) const
    {
        return counters_[static_cast<std::size_t>(site)];
    }

    /**
     * Emit an instant on @p track of @p sink for each fault as it
     * fires (Category::Fault). Null detaches.
     */
    void attachTrace(trace::TraceSink *sink, trace::TrackId track);

  private:
    /** Next uniform deviate in [0, 1) for @p site. */
    double draw(Site site);

    FaultPlan plan_;
    std::uint64_t state_;
    std::array<std::uint64_t, kSiteCount> counters_{};
    std::vector<InjectedFault> injected_;

    trace::TraceSink *sink_ = nullptr;
    trace::TrackId track_ = 0;
};

} // namespace capo::fault

#endif // CAPO_FAULT_FAULT_HH
