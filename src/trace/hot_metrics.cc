#include "trace/hot_metrics.hh"

#include "support/logging.hh"

namespace capo::trace::hot {

namespace detail {

Cells &
cells()
{
    // Function-local so the store is constructed before first use even
    // from static initializers (experiment registrations run early).
    static Cells instance;
    return instance;
}

std::atomic<bool> g_enabled{false};

} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

#define M(NAME, DOTTED, ...) DOTTED,
constexpr const char *kHistogramNames[kHistogramCount] = {
    CAPO_APPLY_TO_HOT_HISTOGRAMS(M)};
#undef M

#define M(NAME, DOTTED) DOTTED,
constexpr const char *kCounterNames[kCounterCount] = {
    CAPO_APPLY_TO_HOT_COUNTERS(M)};
#undef M

} // namespace

const char *
histogramName(Histogram metric)
{
    CAPO_ASSERT(metric < kHistogramCount, "bad hot histogram id");
    return kHistogramNames[metric];
}

const char *
counterName(Counter counter)
{
    CAPO_ASSERT(counter < kCounterCount, "bad hot counter id");
    return kCounterNames[counter];
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the requested quantile among the recorded samples.
    const double rank = q * static_cast<double>(count - 1);
    double seen = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const double in_bucket = static_cast<double>(buckets[i]);
        if (in_bucket <= 0.0)
            continue;
        if (rank < seen + in_bucket) {
            // Interpolate within [lower, upper] of this bucket. The
            // overflow bucket has no upper bound; report the last
            // declared bound (a conservative floor).
            if (i >= bounds.size())
                return bounds.empty() ? 0.0 : bounds.back();
            const double lower = i == 0 ? 0.0 : bounds[i - 1];
            const double upper = bounds[i];
            const double frac =
                in_bucket > 1.0 ? (rank - seen) / in_bucket : 0.5;
            return lower + (upper - lower) * frac;
        }
        seen += in_bucket;
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

Snapshot
Snapshot::since(const Snapshot &earlier) const
{
    Snapshot out = *this;
    for (std::size_t i = 0; i < kCounterCount; ++i)
        out.counters[i] -= earlier.counters[i];
    for (std::size_t m = 0; m < histograms.size(); ++m) {
        auto &hist = out.histograms[m];
        const auto &base = earlier.histograms[m];
        hist.count -= base.count;
        hist.sum -= base.sum;
        for (std::size_t b = 0; b < hist.buckets.size(); ++b)
            hist.buckets[b] -= base.buckets[b];
    }
    return out;
}

Snapshot
snapshot()
{
    auto &cells = detail::cells();
    Snapshot out;
    for (std::size_t i = 0; i < kCounterCount; ++i)
        out.counters[i] =
            cells.counters[i].load(std::memory_order_relaxed);
    out.histograms.resize(kHistogramCount);
    for (std::size_t m = 0; m < kHistogramCount; ++m) {
        auto &hist = out.histograms[m];
        hist.name = kHistogramNames[m];
        hist.count = cells.counts[m].load(std::memory_order_relaxed);
        hist.sum =
            static_cast<double>(
                cells.sums[m].load(std::memory_order_relaxed)) /
            detail::kSumScale;
        const std::size_t buckets = detail::kBucketCounts[m];
        const std::size_t bound_base = detail::boundOffset(m);
        const std::size_t bucket_base = detail::bucketOffset(m);
        hist.bounds.reserve(buckets - 1);
        for (std::size_t b = 0; b + 1 < buckets; ++b)
            hist.bounds.push_back(detail::kAllBounds[bound_base + b]);
        hist.buckets.reserve(buckets);
        for (std::size_t b = 0; b < buckets; ++b)
            hist.buckets.push_back(cells.buckets[bucket_base + b].load(
                std::memory_order_relaxed));
    }
    return out;
}

void
reset()
{
    auto &cells = detail::cells();
    for (auto &cell : cells.buckets)
        cell.store(0, std::memory_order_relaxed);
    for (auto &cell : cells.counts)
        cell.store(0, std::memory_order_relaxed);
    for (auto &cell : cells.sums)
        cell.store(0, std::memory_order_relaxed);
    for (auto &cell : cells.counters)
        cell.store(0, std::memory_order_relaxed);
}

} // namespace capo::trace::hot
