/**
 * @file
 * The experiment server: a long-running daemon that resolves run
 * requests against the report::Experiment registry, schedules
 * execution across worker threads, serves repeated configurations
 * from a content-addressed result cache, and degrades under load and
 * injected connection faults instead of crashing.
 *
 * Request path:
 *
 *   connection thread:  recvFrame -> decode -> [conn_io read fault?]
 *                       -> cache lookup -> hit: reply cached bytes
 *                       -> miss: admission tryPush -> full: RETRY_LATER
 *                       -> accepted: wait for the worker's response
 *                       -> fault-aware reply (retry, then quarantine)
 *
 *   worker thread:      pop ticket -> deadline check -> run the
 *                       registered experiment -> encode store ->
 *                       cache insert (write-through) -> resolve
 *
 * Experiment *bodies* execute one at a time under a *process-global*
 * run mutex: the registry bodies share process-global streams
 * (std::cout) and the process-wide exec::Pool, and each body already
 * parallelizes its own sweep cells across that pool — serving-level
 * concurrency comes from admission, caching and connection handling,
 * not from interleaving two simulations' output. The mutex is global
 * rather than per-server so a fleet of in-process backends (the test
 * topology) contends exactly like one server. Responses for cached
 * keys never take the run mutex at all.
 *
 * A BATCH request carries many run cells in one frame; each cell runs
 * the full per-cell path (cache lookup, admission, worker execution)
 * in cell order, and the combined reply is one response whose body
 * holds the per-cell responses. The connection-level conn_io schedule
 * applies to the batch frame as a whole (one read opportunity, one
 * response write), while each cell keeps its own (stream, seq,
 * attempt) identity for accounting upstream.
 *
 * Determinism: the conn_io fault schedule for a request is a pure
 * function of (fault plan seed, client stream id, request sequence,
 * resend attempt) — never of accept order or worker timing — so an
 * injected drop/short-read storm replays identically at any worker
 * count, and a request retried by the client draws a fresh schedule
 * exactly like the harness's retry-with-backoff.
 */

#ifndef CAPO_SERVE_SERVER_HH
#define CAPO_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hh"
#include "report/artifact.hh"
#include "serve/admission.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"

namespace capo::serve {

/** Server configuration. */
struct ServerOptions
{
    /** Unix-domain socket path ("" disables). */
    std::string socket_path;

    /** Loopback TCP port (0 with tcp=false disables; 0 with tcp=true
     *  asks the kernel for a free port, readable via tcpPort()). */
    bool tcp = false;
    int tcp_port = 0;

    /** Bounded admission queue capacity (RETRY_LATER past it). */
    std::size_t queue_capacity = 64;

    /** Worker threads popping the admission queue. */
    std::size_t workers = 1;

    /** Deadline applied to requests that do not carry one (ms;
     *  0 = none). */
    double default_deadline_ms = 0.0;

    /** Fault plan: the ConnIo rate drives injected connection
     *  drops/short reads. */
    fault::FaultPlan faults;

    /** Extra response-write attempts before a faulted connection is
     *  quarantined. */
    int conn_retries = 2;

    /** Result-cache write-through sink (null = memory-only cache)
     *  and directory under its root; max_entries / max_bytes cap the
     *  cache with LRU eviction of both tiers (0 = unbounded). */
    report::ArtifactSink *sink = nullptr;
    std::string cache_dir = "cache";
    std::size_t cache_max_entries = 0;
    std::size_t cache_max_bytes = 0;
};

/** Point-in-time server statistics (the health endpoint's payload). */
struct HealthSnapshot
{
    bool draining = false;
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
    std::size_t in_flight = 0;
    std::size_t workers = 0;
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    std::uint64_t retry_later = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t shutting_down = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_insertions = 0;
    std::uint64_t cache_loaded = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t cache_evictions = 0;
    double cache_hit_rate = 0.0;
    std::uint64_t conn_accepted = 0;
    std::uint64_t conn_read_drops = 0;
    std::uint64_t conn_write_faults = 0;
    std::uint64_t conn_quarantined = 0;
};

/** Encode a snapshot as a result store, so health responses travel
 *  and render like any result. Table "health" carries the scalar
 *  stats; table "metrics" carries one row per hot-tier counter (its
 *  value) and histogram (count, sum, mean, p50, p90, p99) — the live
 *  scrape a monitoring client renders (trace/hot_metrics.hh). */
report::ResultStore healthStore(const HealthSnapshot &snapshot);

/**
 * The server. start() spawns the accept/worker threads and returns;
 * drain() begins a graceful shutdown; join() blocks until every
 * thread exited and all admitted work was answered.
 */
class ExperimentServer
{
  public:
    explicit ExperimentServer(ServerOptions options);
    ~ExperimentServer();

    ExperimentServer(const ExperimentServer &) = delete;
    ExperimentServer &operator=(const ExperimentServer &) = delete;

    /** Bind listeners, warm the cache from disk, spawn threads.
     *  False with @p error on bind failure. */
    bool start(std::string &error);

    /** Graceful drain: refuse new work, finish admitted tickets,
     *  close connections. Idempotent. */
    void drain();

    /** Wait for all threads after drain(). */
    void join();

    /** Kernel-assigned port when options.tcp with port 0. */
    int tcpPort() const { return tcp_port_; }

    /** Entries warm-loaded from the cache directory by start(). */
    std::size_t warmLoaded() const { return warm_loaded_; }

    HealthSnapshot healthSnapshot() const;
    const ResultCache &cache() const { return cache_; }

  private:
    void acceptLoop(int listen_fd);
    void connectionLoop(int fd);

    /** Worker side: pop tickets, run experiments, resolve. */
    void workerLoop();

    /** Full run-cell path for one Run request: cache lookup, admit,
     *  await the worker's response (shared by Run and each BATCH
     *  cell). Never writes to the socket. */
    Response runCell(const Request &request);

    /** Run one registered experiment and encode its store. */
    Response execute(const Request &request);

    /** Fault-aware response write: injected failures consume write
     *  attempts (deterministically, from @p injector); exhausting
     *  them quarantines the connection. Returns false when the
     *  connection must be dropped. */
    bool writeResponse(int fd, const Response &response,
                       fault::FaultInjector &injector);

    ServerOptions options_;
    ResultCache cache_;
    AdmissionQueue queue_;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = 0;
    std::size_t warm_loaded_ = 0;

    std::vector<std::thread> accept_threads_;
    std::vector<std::thread> workers_;
    std::vector<std::thread> connections_;
    std::mutex connections_mutex_;
    std::set<int> open_fds_;

    std::atomic<bool> draining_{false};
    std::atomic<std::size_t> in_flight_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> retry_later_{0};
    std::atomic<std::uint64_t> deadline_expired_{0};
    std::atomic<std::uint64_t> shutting_down_{0};
    std::atomic<std::uint64_t> conn_accepted_{0};
    std::atomic<std::uint64_t> conn_read_drops_{0};
    std::atomic<std::uint64_t> conn_write_faults_{0};
    std::atomic<std::uint64_t> conn_quarantined_{0};
};

} // namespace capo::serve

#endif // CAPO_SERVE_SERVER_HH
