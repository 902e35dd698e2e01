/**
 * @file
 * The sweep kernel: the one implementation of what every grid sweep
 * (LBO, latency, open-loop, min-heap) shares. A driver supplies its
 * cells in grid order, a journal key, an encode/decode pair and the
 * body that runs one cell; the kernel owns the rest (DESIGN.md §16):
 *
 *  - *Restore.* With a checkpoint journal attached, a cell whose key
 *    is journaled and whose fields decode is restored instead of run
 *    — unless the run needs what the journal does not carry: event
 *    timelines (a trace sink is set) or, per the caller, other raw
 *    per-cell output. Then every cell re-runs (deterministically, so
 *    the output is identical) and the journal still extends for
 *    summary-only resumes later. A field that fails to decode is a
 *    miss: the cell re-runs, it is never restored half-decoded.
 *  - *Fan-out.* Cells run under exec::parallel_for capped at
 *    resolveJobs(base.jobs). Cell results are pure functions of cell
 *    coordinates, so any jobs value gives bit-identical output.
 *  - *Append on finish.* A cell journals the moment it finishes, so
 *    a crash loses at most the cells still in flight. Every cell that
 *    ran counts once in the hot-tier "harness.sweep_cells" counter.
 *  - *Tracing.* Each cell traces into its own pooled shard; after the
 *    join the shards merge onto the sink in grid order, each wrapped
 *    in a "harness"-track span named by the driver's label and laid
 *    end to end on the sink's timeline. No sink is ever written
 *    concurrently.
 *
 * With no journal and no sink the kernel builds no keys, encodes
 * nothing and creates no shards.
 */

#ifndef CAPO_HARNESS_SWEEP_HH
#define CAPO_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/runner.hh"

namespace capo::harness {

/** Index-addressed driver hooks: the type-erased form Sweep forwards
 *  to. */
struct SweepHooks
{
    std::function<std::string(std::size_t)> key;
    std::function<std::vector<std::string>(std::size_t)> encode;
    std::function<bool(std::size_t, const std::vector<std::string> &)>
        decode;
    std::function<std::string(std::size_t)> label;
    std::function<void(std::size_t, const ExperimentOptions &)> body;
};

/**
 * Run @p count cells under the kernel contract above. @p restorable
 * is false when the caller needs per-cell output the journal does not
 * carry. @return How many cells were restored from the journal.
 */
std::size_t runSweep(std::size_t count, const ExperimentOptions &base,
                     CheckpointJournal *journal, bool restorable,
                     const SweepHooks &hooks);

/** A driver's sweep over its own cell type. */
template <typename Cell>
struct Sweep
{
    /** Journal key of a cell. */
    std::function<std::string(const Cell &)> key;
    /** @{ Journal fields of a finished cell, and their inverse
     *  (false = miss). */
    std::function<std::vector<std::string>(const Cell &)> encode;
    std::function<bool(const std::vector<std::string> &, Cell &)>
        decode;
    /** @} */
    /** Name of the cell's harness-track span. */
    std::function<std::string(const Cell &)> label;
    /** Run one cell. @p options is the sweep's base with the cell's
     *  own trace shard (if any) swapped in. */
    std::function<void(Cell &, const ExperimentOptions &options)> body;

    /** Run @p cells, given in grid order. @return Cells restored. */
    std::size_t
    run(std::vector<Cell> &cells, const ExperimentOptions &base,
        CheckpointJournal *journal, bool restorable = true) const
    {
        SweepHooks hooks;
        hooks.key = [&](std::size_t i) { return key(cells[i]); };
        hooks.encode = [&](std::size_t i) { return encode(cells[i]); };
        hooks.decode = [&](std::size_t i,
                           const std::vector<std::string> &fields) {
            // Decode into a copy so a field that fails part-way never
            // leaves a half-restored cell behind for the re-run.
            Cell decoded = cells[i];
            if (!decode(fields, decoded))
                return false;
            cells[i] = std::move(decoded);
            return true;
        };
        hooks.label = [&](std::size_t i) { return label(cells[i]); };
        hooks.body = [&](std::size_t i, const ExperimentOptions &o) {
            body(cells[i], o);
        };
        return runSweep(cells.size(), base, journal, restorable, hooks);
    }
};

} // namespace capo::harness

#endif // CAPO_HARNESS_SWEEP_HH
