#include "serve/server.hh"

#include <future>
#include <iostream>
#include <sstream>
#include <utility>

#include "exec/seed.hh"
#include "report/experiment.hh"
#include "serve/socket.hh"
#include "support/flags.hh"
#include "trace/hot_metrics.hh"

namespace capo::serve {

namespace {

/** Seed for a request's conn_io fault stream: client identity only,
 *  so the schedule is independent of accept order and worker count. */
std::uint64_t
connSeed(const Request &request)
{
    return exec::seedCombine(exec::mix64(request.stream),
                             request.sequence);
}

Response
errorResponse(std::string message)
{
    Response response;
    response.status = Status::Error;
    response.message = std::move(message);
    return response;
}

} // namespace

report::ResultStore
healthStore(const HealthSnapshot &snapshot)
{
    report::ResultStore store;
    auto &table = store.table(
        "health", report::Schema{{"stat", report::Type::String},
                                 {"value", report::Type::Double}});
    const auto row = [&table](const char *stat, double value) {
        table.addRow({report::Value::str(stat),
                      report::Value::dbl(value)});
    };
    row("draining", snapshot.draining ? 1.0 : 0.0);
    row("queue_depth", static_cast<double>(snapshot.queue_depth));
    row("queue_capacity",
        static_cast<double>(snapshot.queue_capacity));
    row("in_flight", static_cast<double>(snapshot.in_flight));
    row("workers", static_cast<double>(snapshot.workers));
    row("accepted", static_cast<double>(snapshot.accepted));
    row("completed", static_cast<double>(snapshot.completed));
    row("errors", static_cast<double>(snapshot.errors));
    row("retry_later", static_cast<double>(snapshot.retry_later));
    row("deadline_expired",
        static_cast<double>(snapshot.deadline_expired));
    row("shutting_down",
        static_cast<double>(snapshot.shutting_down));
    row("cache_hits", static_cast<double>(snapshot.cache_hits));
    row("cache_misses", static_cast<double>(snapshot.cache_misses));
    row("cache_insertions",
        static_cast<double>(snapshot.cache_insertions));
    row("cache_loaded", static_cast<double>(snapshot.cache_loaded));
    row("cache_entries",
        static_cast<double>(snapshot.cache_entries));
    row("cache_bytes", static_cast<double>(snapshot.cache_bytes));
    row("cache_evictions",
        static_cast<double>(snapshot.cache_evictions));
    row("cache_hit_rate", snapshot.cache_hit_rate);
    row("conn_accepted", static_cast<double>(snapshot.conn_accepted));
    row("conn_read_drops",
        static_cast<double>(snapshot.conn_read_drops));
    row("conn_write_faults",
        static_cast<double>(snapshot.conn_write_faults));
    row("conn_quarantined",
        static_cast<double>(snapshot.conn_quarantined));

    // One row per cell of the fixed hot tier: the scrape costs the
    // same however long the process has been recording.
    auto &scrape = store.table(
        "metrics", report::Schema{{"name", report::Type::String},
                                  {"kind", report::Type::String},
                                  {"count", report::Type::Uint},
                                  {"value", report::Type::Double},
                                  {"mean", report::Type::Double},
                                  {"p50", report::Type::Double},
                                  {"p90", report::Type::Double},
                                  {"p99", report::Type::Double}});
    const trace::hot::Snapshot hot = trace::hot::snapshot();
    for (std::size_t i = 0; i < trace::hot::kCounterCount; ++i) {
        scrape.addRow(
            {report::Value::str(trace::hot::counterName(
                 static_cast<trace::hot::Counter>(i))),
             report::Value::str("counter"), report::Value::uinteger(0),
             report::Value::dbl(static_cast<double>(hot.counters[i])),
             report::Value::dbl(0.0), report::Value::dbl(0.0),
             report::Value::dbl(0.0), report::Value::dbl(0.0)});
    }
    for (const auto &h : hot.histograms) {
        scrape.addRow({report::Value::str(h.name),
                       report::Value::str("histogram"),
                       report::Value::uinteger(h.count),
                       report::Value::dbl(h.sum),
                       report::Value::dbl(h.mean()),
                       report::Value::dbl(h.quantile(0.5)),
                       report::Value::dbl(h.quantile(0.9)),
                       report::Value::dbl(h.quantile(0.99))});
    }
    return store;
}

ExperimentServer::ExperimentServer(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.sink, options_.cache_dir,
             options_.cache_max_entries, options_.cache_max_bytes),
      queue_(options_.queue_capacity)
{
    if (options_.workers == 0)
        options_.workers = 1;
}

ExperimentServer::~ExperimentServer()
{
    drain();
    join();
}

bool
ExperimentServer::start(std::string &error)
{
    if (!options_.socket_path.empty()) {
        unix_fd_ = listenUnix(options_.socket_path, error);
        if (unix_fd_ < 0)
            return false;
    }
    if (options_.tcp) {
        tcp_port_ = options_.tcp_port;
        tcp_fd_ = listenTcp(tcp_port_, error);
        if (tcp_fd_ < 0) {
            closeSocket(unix_fd_);
            unix_fd_ = -1;
            return false;
        }
    }
    if (unix_fd_ < 0 && tcp_fd_ < 0) {
        error = "no listener configured (need a socket path or TCP)";
        return false;
    }

    warm_loaded_ = cache_.loadFromDisk();

    for (std::size_t i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    if (unix_fd_ >= 0)
        accept_threads_.emplace_back(
            [this, fd = unix_fd_] { acceptLoop(fd); });
    if (tcp_fd_ >= 0)
        accept_threads_.emplace_back(
            [this, fd = tcp_fd_] { acceptLoop(fd); });
    return true;
}

void
ExperimentServer::drain()
{
    if (draining_.exchange(true))
        return;
    queue_.drain();
    // Closing the listeners unblocks accept(); shutting the open
    // connections down unblocks their readers, and each connection
    // still delivers responses for work already admitted.
    if (unix_fd_ >= 0)
        shutdownSocket(unix_fd_);
    if (tcp_fd_ >= 0)
        shutdownSocket(tcp_fd_);
    closeSocket(unix_fd_);
    closeSocket(tcp_fd_);
    unix_fd_ = -1;
    tcp_fd_ = -1;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (int fd : open_fds_)
            shutdownSocket(fd);
    }
}

void
ExperimentServer::join()
{
    for (auto &thread : accept_threads_)
        if (thread.joinable())
            thread.join();
    accept_threads_.clear();
    for (auto &thread : workers_)
        if (thread.joinable())
            thread.join();
    workers_.clear();
    std::vector<std::thread> connections;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        connections.swap(connections_);
    }
    for (auto &thread : connections)
        if (thread.joinable())
            thread.join();
    if (!options_.socket_path.empty())
        ::remove(options_.socket_path.c_str());
}

HealthSnapshot
ExperimentServer::healthSnapshot() const
{
    HealthSnapshot snapshot;
    snapshot.draining = draining_.load();
    snapshot.queue_depth = queue_.depth();
    snapshot.queue_capacity = queue_.capacity();
    snapshot.in_flight = in_flight_.load();
    snapshot.workers = options_.workers;
    snapshot.accepted = accepted_.load();
    snapshot.completed = completed_.load();
    snapshot.errors = errors_.load();
    snapshot.retry_later = retry_later_.load();
    snapshot.deadline_expired = deadline_expired_.load();
    snapshot.shutting_down = shutting_down_.load();
    snapshot.cache_hits = cache_.hits();
    snapshot.cache_misses = cache_.misses();
    snapshot.cache_insertions = cache_.insertions();
    snapshot.cache_loaded = cache_.loaded();
    snapshot.cache_entries = cache_.entryCount();
    snapshot.cache_bytes = cache_.byteCount();
    snapshot.cache_evictions = cache_.evictions();
    snapshot.cache_hit_rate = cache_.hitRate();
    snapshot.conn_accepted = conn_accepted_.load();
    snapshot.conn_read_drops = conn_read_drops_.load();
    snapshot.conn_write_faults = conn_write_faults_.load();
    snapshot.conn_quarantined = conn_quarantined_.load();
    return snapshot;
}

void
ExperimentServer::acceptLoop(int listen_fd)
{
    for (;;) {
        const int fd = acceptConnection(listen_fd);
        if (fd < 0)
            return;  // Listener closed (drain) or fatal accept error.
        if (draining_.load()) {
            closeSocket(fd);
            continue;
        }
        conn_accepted_.fetch_add(1);
        std::lock_guard<std::mutex> lock(connections_mutex_);
        open_fds_.insert(fd);
        connections_.emplace_back(
            [this, fd] { connectionLoop(fd); });
    }
}

void
ExperimentServer::connectionLoop(int fd)
{
    std::string payload;
    std::string error;
    bool quarantined = false;
    while (!quarantined && recvFrame(fd, payload, error)) {
        Request request;
        if (!decodeRequest(payload, request, error)) {
            // A malformed frame is a protocol error we can still
            // answer; no fault schedule applies (no stream identity).
            fault::FaultInjector none(fault::FaultPlan{}, 0, 0);
            if (!writeResponse(fd, errorResponse(
                                       "bad request: " + error),
                               none))
                break;
            continue;
        }

        // The request's deterministic fault schedule: opportunity 0
        // models the request read, 1.. model response-write attempts.
        fault::FaultInjector injector(
            options_.faults, connSeed(request),
            static_cast<int>(request.attempt));
        if (injector.armed(fault::Site::ConnIo) &&
            injector.fire(fault::Site::ConnIo, 0.0)) {
            // Injected short read: the request never "arrived".
            conn_read_drops_.fetch_add(1);
            break;
        }

        if (request.kind == RequestKind::Health) {
            Response response;
            response.status = Status::Ok;
            response.message =
                draining_.load() ? "DRAINING" : "HEALTHY";
            response.body = encodeStore(healthStore(healthSnapshot()));
            if (!writeResponse(fd, response, injector))
                break;
            continue;
        }
        if (request.kind == RequestKind::Shutdown) {
            Response response;
            response.status = Status::Ok;
            response.message = "draining";
            const bool ok = writeResponse(fd, response, injector);
            drain();
            if (!ok)
                break;
            continue;
        }

        if (request.kind == RequestKind::Batch) {
            // Cells run in cell order through the full per-cell path;
            // the one response frame carries every part, so the
            // conn_io schedule of the batch applies once.
            std::vector<Response> parts;
            parts.reserve(request.cells.size());
            for (const auto &cell : request.cells)
                parts.push_back(runCell(cell));
            Response response;
            response.status = Status::Ok;
            response.body = encodeBatchBody(parts);
            if (!writeResponse(fd, response, injector))
                break;
            continue;
        }

        if (!writeResponse(fd, runCell(request), injector))
            break;
    }

    shutdownSocket(fd);
    closeSocket(fd);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    open_fds_.erase(fd);
}

Response
ExperimentServer::runCell(const Request &request)
{
    const std::uint64_t key = requestKey(request);
    std::string cached_body;
    if (cache_.lookup(key, cached_body)) {
        Response response;
        response.status = Status::Ok;
        response.cached = true;
        response.body = std::move(cached_body);
        completed_.fetch_add(1);
        return response;
    }

    Ticket ticket;
    ticket.request = request;
    ticket.key = key;
    double deadline_ms = request.deadline_ms > 0.0
                             ? request.deadline_ms
                             : options_.default_deadline_ms;
    if (deadline_ms > 0.0) {
        ticket.has_deadline = true;
        ticket.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(
                    deadline_ms));
    }
    auto promise = std::make_shared<std::promise<Response>>();
    auto future = promise->get_future();
    ticket.respond = [promise](Response &&response) {
        promise->set_value(std::move(response));
    };

    Response response;
    switch (queue_.tryPush(std::move(ticket))) {
    case AdmissionQueue::Admit::Accepted:
        accepted_.fetch_add(1);
        response = future.get();
        break;
    case AdmissionQueue::Admit::QueueFull:
        retry_later_.fetch_add(1);
        response.status = Status::RetryLater;
        response.message = "admission queue full";
        break;
    case AdmissionQueue::Admit::Draining:
        shutting_down_.fetch_add(1);
        response.status = Status::ShuttingDown;
        response.message = "server draining";
        break;
    }
    return response;
}

bool
ExperimentServer::writeResponse(int fd, const Response &response,
                                fault::FaultInjector &injector)
{
    const std::string payload = encodeResponse(response);
    const int attempts = options_.conn_retries < 0
                             ? 1
                             : options_.conn_retries + 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (injector.armed(fault::Site::ConnIo) &&
            injector.fire(fault::Site::ConnIo, 0.0)) {
            // Injected write failure: consume the attempt, retry.
            conn_write_faults_.fetch_add(1);
            continue;
        }
        // A real send failure is not retryable — bytes may be on the
        // wire already, and resending would corrupt the stream.
        return sendFrame(fd, payload);
    }
    conn_quarantined_.fetch_add(1);
    return false;
}

void
ExperimentServer::workerLoop()
{
    Ticket ticket;
    while (queue_.pop(ticket)) {
        Response response;
        if (ticket.has_deadline &&
            std::chrono::steady_clock::now() > ticket.deadline) {
            deadline_expired_.fetch_add(1);
            response.status = Status::DeadlineExpired;
            response.message = "deadline passed before execution";
            ticket.respond(std::move(response));
            continue;
        }

        // Another admitted ticket for the same key may have completed
        // while this one queued; replay it instead of re-running.
        std::string cached_body;
        if (cache_.lookup(ticket.key, cached_body)) {
            response.status = Status::Ok;
            response.cached = true;
            response.body = std::move(cached_body);
            completed_.fetch_add(1);
            ticket.respond(std::move(response));
            continue;
        }

        in_flight_.fetch_add(1);
        response = execute(ticket.request);
        in_flight_.fetch_sub(1);

        if (response.status == Status::Ok) {
            cache_.insert(ticket.key, response.body);
            completed_.fetch_add(1);
        } else {
            errors_.fetch_add(1);
        }
        ticket.respond(std::move(response));
    }
}

Response
ExperimentServer::execute(const Request &request)
{
    const report::Experiment *experiment =
        report::ExperimentRegistry::instance().find(
            request.experiment);
    if (experiment == nullptr)
        return errorResponse("unknown experiment '" +
                             request.experiment + "'");

    // Validate args on a scratch flag set first: runRegistered's
    // parse is fatal on bad input, and a daemon must answer, not die.
    {
        auto flags = report::standardFlags(experiment->description);
        if (experiment->add_flags)
            experiment->add_flags(flags);
        std::vector<const char *> argv = {
            request.experiment.c_str()};
        for (const auto &arg : request.args)
            argv.push_back(arg.c_str());
        std::string error;
        if (!flags.tryParse(static_cast<int>(argv.size()),
                            argv.data(), error) ||
            !flags.valuesValid(error))
            return errorResponse("bad arguments: " + error);
    }

    // Bodies share process-global cout and the process-wide pool;
    // run one at a time — across *every* server in this process, not
    // just this one, since cout capture swaps a global streambuf —
    // and keep their narration out of the daemon's stdout. Their
    // *internal* sweep parallelism still fans out across exec::Pool.
    static std::mutex run_mutex;
    std::lock_guard<std::mutex> lock(run_mutex);
    report::ArtifactSink sink(".", report::ArtifactSink::Mode::Discard);
    report::ResultStore store;
    std::ostringstream captured;
    std::streambuf *saved = std::cout.rdbuf(captured.rdbuf());
    int code = 1;
    try {
        code = report::runRegistered(*experiment, request.args, sink,
                                     store);
    } catch (...) {
        std::cout.rdbuf(saved);
        return errorResponse("experiment '" + request.experiment +
                             "' threw");
    }
    std::cout.rdbuf(saved);
    if (code != 0)
        return errorResponse("experiment '" + request.experiment +
                             "' exited with code " +
                             std::to_string(code));

    Response response;
    response.status = Status::Ok;
    response.body = encodeStore(store);
    return response;
}

} // namespace capo::serve
