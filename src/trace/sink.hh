/**
 * @file
 * Unified structured tracing: the substrate every layer emits into.
 *
 * The paper's methodology is built on *observing* the runtime (JVMTI
 * pause callbacks, perf counter sessions, GC logs); capo mirrors that
 * with one correlated event timeline across the simulation engine, the
 * managed runtime, the collectors and the experiment harness. A
 * TraceSink owns one bounded ring buffer per track (one track per
 * simulated agent, plus tracks for GC phases, pacing and counter
 * samples); events are typed (span begin/end, instant, counter
 * sample), stamped from the sim clock, and category-filtered so a
 * disabled category costs a single branch and no allocation.
 *
 * Everything here is single-writer (each simulation is), so the ring
 * buffers are wait-free single-producer structures: an emit is one
 * mask test plus one indexed store — cheap enough to leave enabled in
 * measurement runs (see bench/micro_trace.cc). Parallel sweeps give
 * every invocation its own shard sink (see makeShard()) and merge the
 * shards into the main sink in deterministic invocation order once
 * the fork-join completes, so no sink is ever written concurrently.
 */

#ifndef CAPO_TRACE_SINK_HH
#define CAPO_TRACE_SINK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace capo::trace {

/** Subsystem that emitted an event; used for runtime filtering. */
enum class Category : std::uint32_t {
    Sim = 1u << 0,      ///< Engine scheduling (run/wait/sleep/freeze).
    Runtime = 1u << 1,  ///< Mutator phases, stalls, pacing.
    Gc = 1u << 2,       ///< Collector phases and trigger decisions.
    Harness = 1u << 3,  ///< Invocations, iterations, sweep cells.
    Metrics = 1u << 4,  ///< Periodic counter samples.
    Fault = 1u << 5,    ///< Injected faults and retry bookkeeping.
};

/** Bitwise-or of Category values. */
using CategoryMask = std::uint32_t;

/** Mask with every category enabled. */
constexpr CategoryMask kAllCategories = 0x3f;

/** Printable name of one category. */
const char *categoryName(Category cat);

/**
 * Parse a category list ("sim,gc", "all", "none") into a mask.
 * Fatal on unknown names (typos in experiment scripts must not
 * silently drop data).
 */
std::uint32_t parseCategories(const std::string &spec);

/** Non-fatal variant: false (with @p error set) on unknown names or
 *  an empty list; @p mask is valid only on success. */
bool tryParseCategories(const std::string &spec, CategoryMask &mask,
                        std::string &error);

/** The type of a trace event. */
enum class EventKind : std::uint8_t {
    SpanBegin,  ///< Opens a named interval on a track.
    SpanEnd,    ///< Closes the innermost open interval of that name.
    Instant,    ///< A point event (optionally with a value payload).
    Counter,    ///< A sampled counter value.
};

/** One recorded event. @ref name always points to storage that
 *  outlives the sink (a string literal or an interned string). */
struct TraceEvent
{
    const char *name = nullptr;
    double ts = 0.0;     ///< Absolute ns on the unified timeline.
    double value = 0.0;  ///< Counter sample / instant payload.
    Category cat = Category::Sim;
    EventKind kind = EventKind::Instant;
};

/** Identifies a track (timeline row) within one sink. */
using TrackId = std::uint32_t;

/**
 * Running summary of one Metrics-category counter: count, extremes,
 * sum and sum of squares of every sample the sink accepted, including
 * samples its ring has since overwritten.
 */
struct CounterSummary
{
    std::string name;
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;

    void add(double value);

    /** Fold @p other's samples in, as if added after these. */
    void fold(const CounterSummary &other);

    double mean() const;

    /** Population standard deviation; 0 below two samples. */
    double stddev() const;
};

/**
 * Bounded multi-track event store with category filtering.
 *
 * Timestamps: emitters inside a simulation stamp events with the
 * engine clock, which restarts at zero every invocation; the harness
 * sets a time base between invocations so all events land on one
 * unified timeline. The plain emitters add the base; the *Abs
 * variants (for harness-level spans) take absolute times directly.
 */
class TraceSink
{
  public:
    struct Options {
        /** Enabled-category mask (events outside it cost one branch). */
        std::uint32_t categories = kAllCategories;

        /** Ring capacity per track; the oldest events are overwritten
         *  once a track exceeds it (droppedEvents() counts them). */
        std::size_t track_capacity = 1u << 17;
    };

    TraceSink() : TraceSink(Options{}) {}
    explicit TraceSink(const Options &options);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /**
     * Create (or look up) the track named @p name. Registering an
     * existing name returns the same id, so cross-invocation callers
     * can re-register idempotently.
     */
    TrackId registerTrack(const std::string &name);

    /**
     * Copy @p name into sink-owned storage and return a stable
     * pointer, for event names composed at runtime. Idempotent.
     */
    const char *internName(const std::string &name);

    /** Does the filter pass events of this category? */
    bool
    wants(Category cat) const
    {
        return (mask_ & static_cast<std::uint32_t>(cat)) != 0;
    }

    /** @{ Sim-clock emitters (hot path): @p ts is engine-relative and
     *  the current time base is added. Filtered-out categories return
     *  after the mask test. */
    void
    beginSpan(TrackId track, Category cat, const char *name, double ts)
    {
        if (wants(cat))
            push(track, {name, base_ + ts, 0.0, cat, EventKind::SpanBegin});
    }

    void
    endSpan(TrackId track, Category cat, const char *name, double ts)
    {
        if (wants(cat))
            push(track, {name, base_ + ts, 0.0, cat, EventKind::SpanEnd});
    }

    void
    instant(TrackId track, Category cat, const char *name, double ts,
            double value = 0.0)
    {
        if (wants(cat))
            push(track, {name, base_ + ts, value, cat, EventKind::Instant});
    }

    /** A Metrics-category sample also feeds its name's running
     *  summary (counterSummaries()). */
    void
    counter(TrackId track, Category cat, const char *name, double ts,
            double value)
    {
        if (!wants(cat))
            return;
        push(track, {name, base_ + ts, value, cat, EventKind::Counter});
        if (cat == Category::Metrics)
            summary(name).add(value);
    }
    /** @} */

    /** @{ Absolute-time emitters for harness-level spans. */
    void
    beginSpanAbs(TrackId track, Category cat, const char *name,
                 double abs_ts)
    {
        if (wants(cat))
            push(track, {name, abs_ts, 0.0, cat, EventKind::SpanBegin});
    }

    void
    endSpanAbs(TrackId track, Category cat, const char *name,
               double abs_ts)
    {
        if (wants(cat))
            push(track, {name, abs_ts, 0.0, cat, EventKind::SpanEnd});
    }
    /** @} */

    /** @{ Unified-timeline base added to sim-clock timestamps. */
    void setTimeBase(double base_ns) { base_ = base_ns; }
    double timeBase() const { return base_; }
    /** @} */

    /**
     * Create an empty shard sink with this sink's category filter and
     * track capacity, for one invocation of a parallel sweep to write
     * into from its own thread.
     */
    Options shardOptions() const;

    /**
     * Rewind this sink to the freshly-constructed state under
     * @p options, keeping allocated capacity: track rings move to a
     * spare list (handed back out by registerTrack) and interned
     * strings stay (interning is content-addressed, so reuse is
     * unobservable). Everything observable afterwards matches a
     * newly-constructed sink — pooled shards depend on it.
     */
    void reset(const Options &options);

    /** @{ Shard pool: parallel sweeps burn one shard per invocation;
     *  acquire/release recycle them (reset() between users) instead of
     *  reallocating rings every cell. Mutex-guarded; the lock is taken
     *  once per invocation, never per event. */
    static std::unique_ptr<TraceSink> acquireShard(const Options &options);
    static void releaseShard(std::unique_ptr<TraceSink> shard);

    /** Test hook: drop pooled shards so the next acquire constructs
     *  a fresh sink. */
    static void clearShardPool();
    /** @} */

    /**
     * Append every event of @p shard, shifted by @p offset ns, onto
     * this sink's same-named tracks (registered on demand), and fold
     * its counter summaries into this sink's. Event names are
     * re-interned here, so the shard may be destroyed afterwards.
     * Single-threaded, like every other mutation; callers merge
     * shards in grid order, so the folded sums are the same at any
     * --jobs.
     */
    void merge(const TraceSink &shard, double offset);

    /** @{ Introspection and export support. */
    std::size_t trackCount() const { return tracks_.size(); }
    const std::string &trackName(TrackId track) const;

    /** Retained events of one track, oldest first. */
    std::vector<TraceEvent> events(TrackId track) const;

    /** Events overwritten because a track exceeded its capacity. */
    std::uint64_t droppedEvents() const;

    /** Retained events across all tracks. */
    std::size_t eventCount() const;

    /** One summary per Metrics counter name, in order of first
     *  sample. */
    const std::vector<CounterSummary> &
    counterSummaries() const
    {
        return summaries_;
    }
    /** @} */

  private:
    struct Track {
        std::string name;
        std::vector<TraceEvent> ring;
        std::uint64_t head = 0;  ///< Events ever pushed to this track.
    };

    void push(TrackId track, const TraceEvent &event);

    /** The summary of counter @p name, created on its first sample. */
    CounterSummary &summary(const char *name);

    std::uint32_t mask_;
    std::size_t capacity_;
    double base_ = 0.0;
    std::vector<Track> tracks_;
    std::map<std::string, TrackId> track_by_name_;
    std::deque<std::string> interned_;
    std::map<std::string, const char *> interned_by_name_;
    std::vector<CounterSummary> summaries_;

    /** Cleared rings of reset tracks, recycled by registerTrack. */
    std::vector<std::vector<TraceEvent>> spare_rings_;
};

} // namespace capo::trace

#endif // CAPO_TRACE_SINK_HH
