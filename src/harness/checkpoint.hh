/**
 * @file
 * Crash-safe sweep checkpointing: an append-only journal of completed
 * experiment cells.
 *
 * Production sweeps are hours long; a crash (or an injected fault
 * storm) must not lose completed work. Every finished cell appends one
 * line — key plus result fields — and the file is flushed immediately,
 * so at any kill point the journal holds a prefix of the completed
 * cells (possibly plus one torn final line, which is detected and
 * dropped on load). A resumed sweep replays journaled cells from their
 * recorded fields and runs only the remainder; because cell results
 * are pure functions of cell coordinates and doubles are stored as
 * exact bit patterns, the resumed sweep's CSV output is bit-identical
 * to an uninterrupted run at any --jobs.
 *
 * Format (one record per line, tab-separated):
 *
 *     capo-checkpoint v1 <config-hash hex>
 *     <key>\t<field>\t<field>...
 *
 * Records use the shared result codec (report/codec.hh): the same
 * line framing and exact bit-pattern double encoding as
 * `report::ResultTable` rows, so journaled cells and result-table
 * rows are the same representation — restoring a cell and decoding a
 * table row are one operation, and the two layers can never drift.
 *
 * The header's config hash covers every parameter that shapes the
 * sweep; resuming with a different configuration is refused rather
 * than silently mixing incompatible cells. Keys and fields must not
 * contain tabs or newlines. Journal *line order* varies with --jobs
 * (cells append as they finish); lookups are keyed, so order never
 * affects restored results. The journal grows one line per append —
 * including duplicate keys from re-run cells — until compact()
 * rewrites it as exactly one record per live cell.
 */

#ifndef CAPO_HARNESS_CHECKPOINT_HH
#define CAPO_HARNESS_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace capo::harness {

/**
 * Append-only journal of completed sweep cells.
 */
class CheckpointJournal
{
  public:
    /**
     * Open a journal at @p path.
     *
     * With @p resume false the file is created (or truncated) with a
     * fresh header. With @p resume true an existing file is loaded —
     * its header hash must equal @p config_hash — and subsequent
     * appends extend it; a missing file starts fresh, so --resume is
     * safe on the first run too.
     *
     * @return The journal, or null with @p error set (hash mismatch,
     *         malformed header, unwritable path).
     */
    static std::unique_ptr<CheckpointJournal>
    open(const std::string &path, std::uint64_t config_hash,
         bool resume, std::string &error);

    /**
     * Fetch the recorded fields for @p key. Returns false if the cell
     * has not been journaled. Thread-safe.
     */
    bool lookup(const std::string &key,
                std::vector<std::string> &fields) const;

    /**
     * Record a completed cell: one line, written and flushed under a
     * lock so concurrent sweep cells interleave whole records only.
     * Keys and fields must be tab- and newline-free.
     */
    void append(const std::string &key,
                const std::vector<std::string> &fields);

    /** Cells currently recorded (loaded + appended). */
    std::size_t entryCount() const;

    /**
     * Rewrite the journal from the in-memory cell map: fresh header
     * (same config hash), then exactly one record per cell. Collapses
     * duplicate-key re-appends and dead bytes after a partially
     * restored resume. The rewrite lands whole via a temporary file
     * renamed over the journal, so a crash mid-compaction leaves
     * either the old journal or the new one — never a torn hybrid —
     * and the torn-line / config-hash semantics of open() are
     * unchanged. Subsequent appends extend the compacted file.
     *
     * @return False (journal keeps appending to the old file) when
     *         the temporary cannot be written or renamed.
     */
    bool compact();

  private:
    CheckpointJournal() = default;

    mutable std::mutex mutex_;
    std::string path_;
    std::uint64_t config_hash_ = 0;
    std::ofstream out_;
    std::unordered_map<std::string, std::vector<std::string>> entries_;
};

} // namespace capo::harness

#endif // CAPO_HARNESS_CHECKPOINT_HH
