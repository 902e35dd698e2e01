/**
 * @file
 * The fleet router: spread a list of sweep cells across N capo-serve
 * backends, survive backend death, and merge the per-cell results
 * into one store whose CSVs are byte-identical to a single-backend
 * fault-free run.
 *
 * Dispatch is *round-based*. Each round:
 *
 *   1. Assignment (serial, deterministic): every pending cell asks
 *      the BackendRegistry for an owner. Placement is a pure function
 *      of the pick/outcome history — never of I/O timing — so a given
 *      fault schedule assigns identically on every run.
 *
 *   2. Batching: each backend's cells are packed into BATCH frames of
 *      at most batch_size cells.
 *
 *   3. I/O (parallel up to `jobs` threads): batches fly concurrently;
 *      each batch's outcome only touches its own cells, so the
 *      parallelism cannot reorder results.
 *
 *   4. Outcome processing: per-cell Ok / Error / DeadlineExpired
 *      responses are final (an experiment *error* is an answer, not a
 *      transport failure — exactly the harness's quarantine rule).
 *      Transport failures, RETRY_LATER and SHUTTING_DOWN re-enter the
 *      pending set with the cell's attempt counter bumped — the same
 *      retry/attempt accounting a capo-client resend performs, so a
 *      failed-over cell draws a fresh fault schedule and its result
 *      bytes match a single-backend retry bit for bit.
 *
 * Results never depend on *where* a cell ran: experiment bodies are
 * deterministic and travel as exact-codec bytes, so the merged store
 * is invariant across strategies, backend counts, fault schedules and
 * I/O parallelism — the property fleet_test pins down.
 */

#ifndef CAPO_SERVE_ROUTER_HH
#define CAPO_SERVE_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/registry.hh"

namespace capo::serve {

/** One sweep cell to route: an experiment invocation. */
struct FleetCell
{
    std::string experiment;
    std::vector<std::string> args;
};

/** Outcome of one routed cell. */
struct FleetCellResult
{
    Response response;        ///< Final per-cell response.
    std::string backend;      ///< Backend id that answered ("" none).
    int attempts = 0;         ///< Dispatch attempts consumed.
    bool failed_over = false; ///< Left its first-choice backend.
};

/** Router configuration. */
struct RouterOptions
{
    /** The fleet. */
    std::vector<BackendEndpoint> backends;

    Strategy strategy = Strategy::RoundRobin;
    HealthPolicy health;

    /** Concurrent batch I/O threads (1 = serial; 0 = one per
     *  batch). */
    std::size_t jobs = 4;

    /** Max cells per BATCH frame. */
    std::size_t batch_size = 8;

    /** Re-dispatch attempts per cell after transport failures or
     *  RETRY_LATER (total tries = cell_retries + 1). */
    int cell_retries = 8;

    /** Backoff between dispatch rounds that follow a failure, ms. */
    double retry_backoff_ms = 5.0;

    /** Per-cell deadline handed to the backends (0 = none). */
    double deadline_ms = 0.0;

    /** Base of the per-cell fault stream ids: cell i uses stream
     *  stream_base + i, so concurrent fleets can stay disjoint. */
    std::uint64_t stream_base = 0;
};

/**
 * The router. One instance per sweep is the intended shape; the
 * registry (health state) persists across runCells() calls so a
 * long-lived fleet keeps learning.
 */
class FleetRouter
{
  public:
    explicit FleetRouter(RouterOptions options);

    /**
     * Route every cell, with failover, until each has a final
     * response or exhausted its retries. Results are in cell order.
     */
    std::vector<FleetCellResult>
    runCells(const std::vector<FleetCell> &cells);

    /** Probe every backend's health endpoint once, feeding the
     *  registry's hysteresis. Returns per-backend success. */
    std::vector<bool> probeAll();

    BackendRegistry &registry() { return registry_; }
    const RouterOptions &options() const { return options_; }

  private:
    struct Batch
    {
        std::size_t backend = 0;
        std::uint64_t stream = 0;
        std::vector<std::size_t> cell_indices;
    };

    /** Dispatch one batch, distributing outcomes to @p results and
     *  @p retry flags (uint8 per cell: vector<bool> bit-packs, and
     *  batches complete concurrently). */
    void dispatchBatch(const Batch &batch,
                       const std::vector<Request> &requests,
                       std::vector<FleetCellResult> &results,
                       std::vector<std::uint8_t> &retry);

    RouterOptions options_;
    BackendRegistry registry_;
    std::uint64_t next_batch_stream_ = 0;
};

/**
 * Merge per-cell result stores into one: for every table the cells
 * produced, a merged table with a leading "cell" index column and the
 * cells' rows appended in cell order. Tables keep their first-seen
 * (insertion) order, so repeated merges of the same results are
 * byte-identical. False + @p error when a cell failed, a body does
 * not decode, or schemas disagree across cells.
 */
bool mergeCellStores(const std::vector<FleetCellResult> &results,
                     report::ResultStore &merged, std::string &error);

} // namespace capo::serve

#endif // CAPO_SERVE_ROUTER_HH
