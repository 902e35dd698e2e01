#include "serve/cache.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "serve/protocol.hh"

namespace capo::serve {

namespace {

const char *const kFileMagic = "capo-result v1";

std::string
fileHeader(std::uint64_t key, std::size_t bytes)
{
    char buffer[80];
    std::snprintf(buffer, sizeof buffer, "%s %016llx %zu\n", kFileMagic,
                  static_cast<unsigned long long>(key), bytes);
    return buffer;
}

/** Parse a cache file into (key, payload); false on any corruption. */
bool
parseFile(const std::string &contents, std::uint64_t &key,
          std::string &payload)
{
    const auto nl = contents.find('\n');
    if (nl == std::string::npos)
        return false;
    std::stringstream head(contents.substr(0, nl));
    std::string magic_a, magic_b, key_hex;
    std::size_t bytes = 0;
    head >> magic_a >> magic_b >> key_hex >> bytes;
    if (magic_a + " " + magic_b != kFileMagic || key_hex.size() != 16)
        return false;
    char *end = nullptr;
    key = std::strtoull(key_hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0')
        return false;
    // A torn write leaves fewer payload bytes than the header
    // promises; a concatenation bug leaves more. Both are skipped.
    if (contents.size() - nl - 1 != bytes)
        return false;
    payload = contents.substr(nl + 1);
    return true;
}

} // namespace

ResultCache::ResultCache(report::ArtifactSink *sink, std::string dir,
                         std::size_t max_entries,
                         std::size_t max_bytes)
    : sink_(sink), dir_(std::move(dir)), max_entries_(max_entries),
      max_bytes_(max_bytes)
{
}

std::vector<std::uint64_t>
ResultCache::evictOverCapsLocked()
{
    std::vector<std::uint64_t> evicted;
    const auto over = [this] {
        return (max_entries_ > 0 && entries_.size() > max_entries_) ||
               (max_bytes_ > 0 && bytes_ > max_bytes_);
    };
    // Never evict down to nothing: a lone entry over the byte cap
    // stays (an empty cache serves nobody).
    while (over() && recency_.size() > 1) {
        const std::uint64_t victim = recency_.back();
        recency_.pop_back();
        const auto it = entries_.find(victim);
        if (it != entries_.end()) {
            bytes_ -= it->second.payload.size();
            entries_.erase(it);
        }
        ++evictions_;
        evicted.push_back(victim);
    }
    return evicted;
}

void
ResultCache::removeFromDisk(const std::vector<std::uint64_t> &keys)
{
    if (sink_ == nullptr || keys.empty())
        return;
    std::lock_guard<std::mutex> sink_lock(sink_mutex_);
    for (const std::uint64_t key : keys)
        sink_->remove(dir_ + "/" + cacheFileName(key));
}

std::size_t
ResultCache::loadFromDisk()
{
    if (sink_ == nullptr ||
        sink_->mode() != report::ArtifactSink::Mode::Disk)
        return 0;
    const std::filesystem::path root =
        std::filesystem::path(sink_->root()) / dir_;
    std::error_code ec;
    if (!std::filesystem::is_directory(root, ec))
        return 0;

    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(root, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".capores")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());

    std::size_t count = 0;
    std::vector<std::uint64_t> evicted;
    for (const auto &path : files) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            continue;
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::uint64_t key = 0;
        std::string payload;
        if (!parseFile(buffer.str(), key, payload))
            continue;
        // The name is derived from the key; a mismatch means the file
        // was renamed or corrupted — not trustworthy either way.
        if (std::filesystem::path(path).filename() !=
            cacheFileName(key))
            continue;
        std::lock_guard<std::mutex> lock(mutex_);
        const auto emplaced = entries_.emplace(key, Entry{});
        if (emplaced.second) {
            bytes_ += payload.size();
            recency_.push_front(key);
            emplaced.first->second.payload = std::move(payload);
            emplaced.first->second.lru = recency_.begin();
            ++loaded_;
            ++count;
            const auto batch = evictOverCapsLocked();
            evicted.insert(evicted.end(), batch.begin(), batch.end());
        }
    }
    removeFromDisk(evicted);
    return count;
}

bool
ResultCache::lookup(std::uint64_t key, std::string &payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return false;
    }
    // The payload is copied out under the lock: an eviction racing
    // with this replay can drop the entry afterwards, never tear it.
    payload = it->second.payload;
    recency_.splice(recency_.begin(), recency_, it->second.lru);
    ++hits_;
    return true;
}

void
ResultCache::insert(std::uint64_t key, const std::string &payload)
{
    std::vector<std::uint64_t> evicted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto emplaced = entries_.emplace(key, Entry{});
        if (!emplaced.second)
            return;
        bytes_ += payload.size();
        recency_.push_front(key);
        emplaced.first->second.payload = payload;
        emplaced.first->second.lru = recency_.begin();
        ++insertions_;
        evicted = evictOverCapsLocked();
    }
    // Write-through outside the map lock (lookups stay fast during
    // disk I/O) but under the sink lock (ArtifactSink is not
    // thread-safe). The sink buffers, retries and quarantines; a
    // failed write degrades to memory-only, never an error. Eviction
    // walks from the LRU tail and never drains the list, so the entry
    // just inserted at the front always survives its own insert.
    if (sink_ != nullptr) {
        std::lock_guard<std::mutex> sink_lock(sink_mutex_);
        sink_->write(dir_ + "/" + cacheFileName(key),
                     [&](std::ostream &out) {
                         out << fileHeader(key, payload.size())
                             << payload;
                     });
    }
    removeFromDisk(evicted);
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
ResultCache::insertions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return insertions_;
}

std::uint64_t
ResultCache::loaded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return loaded_;
}

std::uint64_t
ResultCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

std::size_t
ResultCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
ResultCache::byteCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

double
ResultCache::hitRate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

} // namespace capo::serve
