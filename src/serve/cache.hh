/**
 * @file
 * Content-addressed result cache for the experiment server.
 *
 * Keys are serve::requestKey hashes — the same canonical-string
 * FNV-1a recipe the checkpoint journal uses for its config hash — and
 * values are the *raw response body bytes* of a completed run. Caching
 * bytes rather than decoded tables is the bit-identity guarantee: a
 * hit replays exactly what the uncached run sent, with no second
 * serialization that could drift.
 *
 * Writes go through the report layer's ArtifactSink choke point
 * (cache/<key>.capores under the sink root), so cache persistence
 * inherits buffered-whole writes, retry, quarantine and artifact_io
 * fault injectability; a cache file that cannot land degrades to an
 * in-memory-only entry, never an error. On startup the server warm-
 * loads the cache directory, so a kill -9 loses in-flight work but
 * never completed, persisted results.
 *
 * Eviction is size-bounded LRU over *both* tiers: a lookup refreshes
 * its entry's recency, and when an insert (or warm load) pushes the
 * cache past its entry or byte cap the least-recently-used entries
 * are dropped from memory and their disk files unlinked — the disk
 * tier is durable against crashes, not unbounded. A replay in flight
 * is never torn by eviction: lookups copy the payload out under the
 * map lock before any eviction can touch the entry.
 *
 * File format: one header line "capo-result v1 <key hex> <nbytes>",
 * then exactly nbytes of payload. A file whose byte count disagrees
 * with its header (torn write) or whose name disagrees with its
 * header key is skipped on load, mirroring the checkpoint journal's
 * torn-line semantics.
 */

#ifndef CAPO_SERVE_CACHE_HH
#define CAPO_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "report/artifact.hh"

namespace capo::serve {

/**
 * Thread-safe content-addressed store of response payloads.
 */
class ResultCache
{
  public:
    /**
     * @param sink Write-through target (null = memory-only cache).
     * @param dir Directory for cache files, relative to the sink
     *        root.
     * @param max_entries Entry cap: past it the least-recently-used
     *        entry is evicted from memory *and* its disk file
     *        unlinked. 0 = unbounded.
     * @param max_bytes Payload-byte cap, same LRU policy. A single
     *        entry larger than the cap is kept (an empty cache serves
     *        nobody). 0 = unbounded.
     */
    explicit ResultCache(report::ArtifactSink *sink = nullptr,
                         std::string dir = "cache",
                         std::size_t max_entries = 0,
                         std::size_t max_bytes = 0);

    /**
     * Warm the in-memory map from the on-disk cache directory
     * (Disk-mode sink only). Files load in sorted name order;
     * malformed or torn files are skipped; the caps apply (later
     * names count as more recent). Returns entries loaded.
     */
    std::size_t loadFromDisk();

    /** Fetch the payload for @p key (refreshing its LRU recency).
     *  Counts a hit or miss. */
    bool lookup(std::uint64_t key, std::string &payload);

    /** Insert (and write through to disk when a sink is attached).
     *  Re-inserting an existing key is a no-op: the first completed
     *  run's bytes are authoritative. */
    void insert(std::uint64_t key, const std::string &payload);

    /** @{ Stats (monotonic since construction, except entry/byte
     *  counts which track the live map). */
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t insertions() const;
    std::uint64_t loaded() const;
    std::uint64_t evictions() const;
    std::size_t entryCount() const;
    std::size_t byteCount() const;
    /** @} */

    /** Hit fraction of all lookups so far (0 when none). */
    double hitRate() const;

  private:
    struct Entry
    {
        std::string payload;
        /** Position in recency_ (front = most recently used). */
        std::list<std::uint64_t>::iterator lru;
    };

    /** Evict LRU entries past the caps. Call with mutex_ held; the
     *  evicted keys are returned so their disk files can be unlinked
     *  *outside* the map lock (under the sink lock). */
    std::vector<std::uint64_t> evictOverCapsLocked();

    /** Unlink the disk files of evicted keys (no-op without a
     *  sink). */
    void removeFromDisk(const std::vector<std::uint64_t> &keys);

    mutable std::mutex mutex_;
    /** Serializes sink_ access: ArtifactSink is not thread-safe, and
     *  concurrent inserts write through from worker threads. */
    std::mutex sink_mutex_;
    report::ArtifactSink *sink_;
    std::string dir_;
    std::size_t max_entries_;
    std::size_t max_bytes_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    /** LRU order, front = most recently used. */
    std::list<std::uint64_t> recency_;
    std::size_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t loaded_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace capo::serve

#endif // CAPO_SERVE_CACHE_HH
