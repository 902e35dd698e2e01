#include "harness/checkpoint.hh"

#include <cstdio> // also std::rename/std::remove
#include <map>

#include "report/codec.hh"
#include "support/logging.hh"
#include "support/strfmt.hh"

namespace capo::harness {

namespace {

constexpr const char *kMagic = "capo-checkpoint";
constexpr const char *kVersion = "v1";

std::string
headerLine(std::uint64_t config_hash)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s %s %016llx", kMagic, kVersion,
                  static_cast<unsigned long long>(config_hash));
    return buf;
}

} // namespace

std::unique_ptr<CheckpointJournal>
CheckpointJournal::open(const std::string &path,
                        std::uint64_t config_hash, bool resume,
                        std::string &error)
{
    std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal());
    journal->path_ = path;
    journal->config_hash_ = config_hash;

    bool have_existing = false;
    if (resume) {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            have_existing = true;
            std::string contents((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
            // A file killed mid-append may end in a torn line: only
            // newline-terminated records are trusted. Dropping the
            // tail re-runs at most one cell.
            const bool torn =
                !contents.empty() && contents.back() != '\n';

            std::vector<std::string> lines;
            std::size_t begin = 0;
            while (begin < contents.size()) {
                auto nl = contents.find('\n', begin);
                if (nl == std::string::npos) {
                    if (!torn)
                        lines.push_back(contents.substr(begin));
                    break;
                }
                lines.push_back(contents.substr(begin, nl - begin));
                begin = nl + 1;
            }
            if (torn && begin < contents.size()) {
                support::warn("checkpoint ", path,
                              ": dropping torn final record");
            }

            if (lines.empty()) {
                error = support::concat("checkpoint ", path,
                                        ": empty or torn header");
                return nullptr;
            }
            if (lines.front() != headerLine(config_hash)) {
                error = support::concat(
                    "checkpoint ", path,
                    ": header mismatch (expected \"",
                    headerLine(config_hash), "\", found \"",
                    lines.front(),
                    "\"); the sweep configuration changed — remove "
                    "the file or drop --resume");
                return nullptr;
            }
            for (std::size_t i = 1; i < lines.size(); ++i) {
                if (lines[i].empty())
                    continue;
                auto fields = report::decodeRecord(lines[i]);
                std::string key = std::move(fields.front());
                fields.erase(fields.begin());
                // Duplicate keys: last record wins (a re-run cell
                // re-journals identically anyway).
                journal->entries_[std::move(key)] = std::move(fields);
            }
        }
    }

    const auto mode = have_existing
                          ? std::ios::binary | std::ios::app
                          : std::ios::binary | std::ios::trunc;
    journal->out_.open(path, mode);
    if (!journal->out_) {
        error = support::concat("checkpoint ", path,
                                ": cannot open for writing");
        return nullptr;
    }
    if (!have_existing) {
        journal->out_ << headerLine(config_hash) << '\n';
        journal->out_.flush();
    }
    return journal;
}

bool
CheckpointJournal::lookup(const std::string &key,
                          std::vector<std::string> &fields) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    fields = it->second;
    return true;
}

void
CheckpointJournal::append(const std::string &key,
                          const std::vector<std::string> &fields)
{
    std::vector<std::string> record;
    record.reserve(fields.size() + 1);
    record.push_back(key);
    record.insert(record.end(), fields.begin(), fields.end());
    const std::string line = report::encodeRecord(record);

    std::lock_guard<std::mutex> lock(mutex_);
    // Whole-record writes plus an immediate flush: a kill between
    // appends loses nothing, a kill mid-append loses one torn line.
    out_ << line;
    out_.flush();
    entries_[key] = fields;
}

std::size_t
CheckpointJournal::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

bool
CheckpointJournal::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Key-sorted for a stable, diffable layout (the map itself is
    // unordered; append order is lost anyway once duplicates merge).
    std::map<std::string, const std::vector<std::string> *> sorted;
    for (const auto &[key, fields] : entries_)
        sorted[key] = &fields;

    const std::string tmp_path = path_ + ".compact.tmp";
    {
        std::ofstream tmp(tmp_path,
                          std::ios::binary | std::ios::trunc);
        if (!tmp) {
            support::warn("checkpoint ", path_,
                          ": cannot open ", tmp_path,
                          " — compaction skipped");
            return false;
        }
        tmp << headerLine(config_hash_) << '\n';
        for (const auto &[key, fields] : sorted) {
            std::vector<std::string> record;
            record.reserve(fields->size() + 1);
            record.push_back(key);
            record.insert(record.end(), fields->begin(),
                          fields->end());
            tmp << report::encodeRecord(record);
        }
        tmp.flush();
        if (!tmp) {
            support::warn("checkpoint ", path_, ": error writing ",
                          tmp_path, " — compaction skipped");
            std::remove(tmp_path.c_str());
            return false;
        }
    }

    if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
        support::warn("checkpoint ", path_, ": cannot replace with ",
                      tmp_path, " — compaction skipped");
        std::remove(tmp_path.c_str());
        return false;
    }

    // Re-point the append stream at the compacted file; the old
    // handle still references the unlinked original.
    out_.close();
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_) {
        support::warn("checkpoint ", path_,
                      ": cannot reopen after compaction — further "
                      "cells will not be journaled");
        return false;
    }
    return true;
}

} // namespace capo::harness
