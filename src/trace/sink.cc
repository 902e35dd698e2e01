#include "trace/sink.hh"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

#include "support/logging.hh"

namespace capo::trace {

const char *
categoryName(Category cat)
{
    switch (cat) {
      case Category::Sim:
        return "sim";
      case Category::Runtime:
        return "runtime";
      case Category::Gc:
        return "gc";
      case Category::Harness:
        return "harness";
      case Category::Metrics:
        return "metrics";
      case Category::Fault:
        return "fault";
    }
    return "?";
}

bool
tryParseCategories(const std::string &spec, CategoryMask &mask,
                   std::string &error)
{
    mask = 0;
    std::stringstream ss(spec);
    std::string item;
    bool any = false;
    while (std::getline(ss, item, ',')) {
        // Trim surrounding whitespace.
        const auto begin = item.find_first_not_of(" \t");
        if (begin == std::string::npos)
            continue;
        const auto end = item.find_last_not_of(" \t");
        item = item.substr(begin, end - begin + 1);
        any = true;

        if (item == "all")
            mask |= kAllCategories;
        else if (item == "none")
            ;  // contributes nothing
        else if (item == "sim")
            mask |= static_cast<std::uint32_t>(Category::Sim);
        else if (item == "runtime")
            mask |= static_cast<std::uint32_t>(Category::Runtime);
        else if (item == "gc")
            mask |= static_cast<std::uint32_t>(Category::Gc);
        else if (item == "harness")
            mask |= static_cast<std::uint32_t>(Category::Harness);
        else if (item == "metrics")
            mask |= static_cast<std::uint32_t>(Category::Metrics);
        else if (item == "fault")
            mask |= static_cast<std::uint32_t>(Category::Fault);
        else {
            error = "unknown trace category '" + item +
                    "' (known: sim, runtime, gc, harness, metrics, "
                    "fault, all, none)";
            return false;
        }
    }
    if (!any) {
        error = "empty trace category list";
        return false;
    }
    return true;
}

std::uint32_t
parseCategories(const std::string &spec)
{
    CategoryMask mask = 0;
    std::string error;
    if (!tryParseCategories(spec, mask, error))
        support::fatal(error);
    return mask;
}

void
CounterSummary::add(double value)
{
    min = count == 0 ? value : std::min(min, value);
    max = count == 0 ? value : std::max(max, value);
    ++count;
    sum += value;
    sum_sq += value * value;
}

void
CounterSummary::fold(const CounterSummary &other)
{
    if (other.count == 0)
        return;
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    sum += other.sum;
    sum_sq += other.sum_sq;
}

double
CounterSummary::mean() const
{
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double
CounterSummary::stddev() const
{
    if (count < 2)
        return 0.0;
    const double m = mean();
    return std::sqrt(
        std::max(0.0, sum_sq / static_cast<double>(count) - m * m));
}

TraceSink::TraceSink(const Options &options)
    : mask_(options.categories), capacity_(options.track_capacity)
{
    CAPO_ASSERT(capacity_ > 0, "trace track capacity must be positive");
}

TrackId
TraceSink::registerTrack(const std::string &name)
{
    const auto it = track_by_name_.find(name);
    if (it != track_by_name_.end())
        return it->second;
    const auto id = static_cast<TrackId>(tracks_.size());
    tracks_.push_back(Track{name, {}, 0});
    if (!spare_rings_.empty()) {
        tracks_.back().ring = std::move(spare_rings_.back());
        spare_rings_.pop_back();
    }
    track_by_name_.emplace(name, id);
    return id;
}

void
TraceSink::reset(const Options &options)
{
    CAPO_ASSERT(options.track_capacity > 0,
                "trace track capacity must be positive");
    mask_ = options.categories;
    // Rings sized for a different capacity must not be recycled: a
    // fresh sink would never have grown one past the new capacity.
    if (options.track_capacity != capacity_)
        spare_rings_.clear();
    capacity_ = options.track_capacity;
    base_ = 0.0;
    for (auto &t : tracks_) {
        t.ring.clear();
        spare_rings_.push_back(std::move(t.ring));
    }
    tracks_.clear();
    track_by_name_.clear();
    summaries_.clear();
    // interned_ stays: pointers are stable and lookups are by content.
}

const char *
TraceSink::internName(const std::string &name)
{
    const auto it = interned_by_name_.find(name);
    if (it != interned_by_name_.end())
        return it->second;
    interned_.push_back(name);
    const char *stable = interned_.back().c_str();
    interned_by_name_.emplace(name, stable);
    return stable;
}

const std::string &
TraceSink::trackName(TrackId track) const
{
    CAPO_ASSERT(track < tracks_.size(), "bad track id");
    return tracks_[track].name;
}

void
TraceSink::push(TrackId track, const TraceEvent &event)
{
    CAPO_ASSERT(track < tracks_.size(), "bad track id");
    auto &t = tracks_[track];
    if (t.ring.size() < capacity_)
        t.ring.push_back(event);
    else
        t.ring[t.head % capacity_] = event;
    ++t.head;
}

CounterSummary &
TraceSink::summary(const char *name)
{
    // A sampler has a handful of probes: a linear scan beats a map.
    for (auto &summary : summaries_) {
        if (summary.name == name)
            return summary;
    }
    summaries_.push_back(CounterSummary{name});
    return summaries_.back();
}

std::vector<TraceEvent>
TraceSink::events(TrackId track) const
{
    CAPO_ASSERT(track < tracks_.size(), "bad track id");
    const auto &t = tracks_[track];
    if (t.head <= capacity_)
        return t.ring;
    // Ring wrapped: the oldest retained event sits at head % capacity.
    std::vector<TraceEvent> out;
    out.reserve(capacity_);
    const std::size_t start = t.head % capacity_;
    for (std::size_t i = 0; i < capacity_; ++i)
        out.push_back(t.ring[(start + i) % capacity_]);
    return out;
}

namespace {

/** Process-wide shard freelist. Guarded by its mutex; shards are
 *  acquired/released once per invocation, so contention is nil. */
struct ShardPool
{
    std::mutex mutex;
    std::vector<std::unique_ptr<TraceSink>> free;
};

ShardPool &
shardPool()
{
    static ShardPool pool;
    return pool;
}

} // namespace

std::unique_ptr<TraceSink>
TraceSink::acquireShard(const Options &options)
{
    auto &pool = shardPool();
    {
        std::lock_guard<std::mutex> lock(pool.mutex);
        if (!pool.free.empty()) {
            auto shard = std::move(pool.free.back());
            pool.free.pop_back();
            shard->reset(options);
            return shard;
        }
    }
    return std::make_unique<TraceSink>(options);
}

void
TraceSink::releaseShard(std::unique_ptr<TraceSink> shard)
{
    if (shard == nullptr)
        return;
    auto &pool = shardPool();
    std::lock_guard<std::mutex> lock(pool.mutex);
    pool.free.push_back(std::move(shard));
}

void
TraceSink::clearShardPool()
{
    auto &pool = shardPool();
    std::lock_guard<std::mutex> lock(pool.mutex);
    pool.free.clear();
}

TraceSink::Options
TraceSink::shardOptions() const
{
    Options options;
    options.categories = mask_;
    options.track_capacity = capacity_;
    return options;
}

void
TraceSink::merge(const TraceSink &shard, double offset)
{
    for (TrackId t = 0; t < shard.trackCount(); ++t) {
        const TrackId track = registerTrack(shard.trackName(t));
        for (auto event : shard.events(t)) {
            // The shard's name pointers may reference its own interned
            // storage; re-intern so the copy outlives the shard.
            event.name = internName(event.name);
            event.ts += offset;
            push(track, event);
        }
    }
    for (const auto &counter : shard.summaries_)
        summary(counter.name.c_str()).fold(counter);
}

std::uint64_t
TraceSink::droppedEvents() const
{
    std::uint64_t dropped = 0;
    for (const auto &t : tracks_) {
        if (t.head > capacity_)
            dropped += t.head - capacity_;
    }
    return dropped;
}

std::size_t
TraceSink::eventCount() const
{
    std::size_t count = 0;
    for (const auto &t : tracks_)
        count += t.ring.size();
    return count;
}

} // namespace capo::trace
