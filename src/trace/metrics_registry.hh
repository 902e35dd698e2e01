/**
 * @file
 * Named log-bucketed histograms for the periodic sampler.
 *
 * The registry is the aggregate side of the tracing subsystem: where
 * the TraceSink keeps the raw timeline, the registry keeps summary
 * statistics (how often, how spread) cheap enough to update on every
 * sample. The periodic sampler (trace/sampler.hh) feeds both: each
 * probe reading becomes a counter-track event *and* a histogram
 * observation, so offline CSV summaries and the Perfetto view can
 * never disagree about what was measured.
 *
 * Thread safety: one registry is shared by every invocation of a
 * parallel sweep (trace *timelines* shard per invocation, aggregate
 * *statistics* do not), so all mutation paths are lock-free atomics —
 * a CAS-add per sample — and name registration takes a mutex. Reads
 * of multi-word summaries (mean, stddev, quantile) are intended for
 * quiescent export, not for mid-run consistency.
 */

#ifndef CAPO_TRACE_METRICS_REGISTRY_HH
#define CAPO_TRACE_METRICS_REGISTRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace capo::trace {

namespace detail {

/** Relaxed atomic add for doubles (fetch_add via CAS). */
inline void
atomicAdd(std::atomic<double> &target, double delta)
{
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}

/** Relaxed atomic minimum. */
inline void
atomicMin(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value < current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

/** Relaxed atomic maximum. */
inline void
atomicMax(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value > current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace detail

/**
 * Log-bucketed histogram of non-negative samples.
 *
 * Buckets are spaced 8 per decade from 1e-3 upward (16 decades), with
 * a dedicated bucket for values <= 0; quantile() returns the geometric
 * midpoint of the selected bucket, so it is approximate to roughly
 * +/- 15 % — plenty for summary tables of heap sizes and durations.
 *
 * record() is wait-free per word; concurrent recorders may interleave,
 * so cross-field reads (count vs sum) are only exact at quiescence.
 */
class Histogram
{
  public:
    static constexpr int kBucketsPerDecade = 8;
    static constexpr int kDecades = 16;
    static constexpr double kFirstBucketValue = 1e-3;
    static constexpr int kBuckets = kBucketsPerDecade * kDecades + 1;

    void record(double value);

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double min() const;
    double max() const;
    double mean() const;
    double stddev() const;
    double last() const { return last_.load(std::memory_order_relaxed); }

    /** Approximate @p q quantile (q in [0, 1]); 0 when empty. */
    double quantile(double q) const;

  private:
    static int bucketOf(double value);
    static double bucketMid(int bucket);

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> sum_sq_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
    std::atomic<double> last_{0.0};
};

/**
 * Insertion-ordered registry of named histograms: the periodic
 * sampler's per-probe distributions, whose names are only known at
 * run time. Fixed-name counts and distributions live in the hot tier
 * (trace/hot_metrics.hh).
 *
 * histogram() creates on first use and returns a stable reference
 * (storage is a deque, which never relocates elements). Lookup takes
 * a mutex — callers on hot paths (the sampler) cache the references.
 */
class MetricsRegistry
{
  public:
    struct Entry {
        explicit Entry(std::string n) : name(std::move(n)) {}

        std::string name;
        Histogram histogram;
    };

    Histogram &histogram(const std::string &name);

    bool contains(const std::string &name) const;
    std::size_t size() const;

    /** Entries in registration order (for reports and CSV export);
     *  only safe while no concurrent registration is possible. */
    const std::deque<Entry> &entries() const { return entries_; }

  private:
    mutable std::mutex mutex_;
    std::deque<Entry> entries_;
    std::map<std::string, std::size_t> by_name_;
};

} // namespace capo::trace

#endif // CAPO_TRACE_METRICS_REGISTRY_HH
