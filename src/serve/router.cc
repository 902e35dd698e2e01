#include "serve/router.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "serve/client.hh"
#include "trace/hot_metrics.hh"

namespace capo::serve {

namespace {

/** Outer batch frames use their own stream range, far above the
 *  per-cell streams, so a batch frame's conn_io schedule never
 *  collides with a cell's. */
constexpr std::uint64_t kBatchStreamOffset = 1ull << 32;
constexpr std::uint64_t kProbeStreamOffset = 1ull << 33;

Response
finalError(std::string message)
{
    Response response;
    response.status = Status::Error;
    response.message = std::move(message);
    return response;
}

bool
schemasMatch(const report::Schema &a, const report::Schema &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t c = 0; c < a.size(); ++c) {
        if (a.columns()[c].name != b.columns()[c].name ||
            a.columns()[c].type != b.columns()[c].type)
            return false;
    }
    return true;
}

} // namespace

FleetRouter::FleetRouter(RouterOptions options)
    : options_(std::move(options)),
      registry_(options_.backends, options_.strategy, options_.health)
{
    if (options_.batch_size == 0)
        options_.batch_size = 1;
}

std::vector<bool>
FleetRouter::probeAll()
{
    std::vector<bool> ok(registry_.size(), false);
    for (std::size_t b = 0; b < registry_.size(); ++b) {
        const BackendEndpoint &endpoint = registry_.endpoint(b);
        ClientOptions copts;
        copts.socket_path = endpoint.socket_path;
        copts.tcp_port = endpoint.tcp_port;
        copts.stream = options_.stream_base + kProbeStreamOffset +
                       next_batch_stream_++;
        copts.max_retries = 0;  // A probe is one observation.
        Client client(copts);
        Response response;
        std::string error;
        ok[b] = client.health(response, error) &&
                response.status == Status::Ok;
        registry_.reportProbe(b, ok[b]);
        trace::hot::count(ok[b] ? trace::hot::FleetProbeOk
                                : trace::hot::FleetProbeFail);
    }
    return ok;
}

void
FleetRouter::dispatchBatch(const Batch &batch,
                           const std::vector<Request> &requests,
                           std::vector<FleetCellResult> &results,
                           std::vector<std::uint8_t> &retry)
{
    const BackendEndpoint &endpoint =
        registry_.endpoint(batch.backend);
    ClientOptions copts;
    copts.socket_path = endpoint.socket_path;
    copts.tcp_port = endpoint.tcp_port;
    copts.stream = batch.stream;
    // The router owns macro-retries and failover; the per-batch
    // client gets exactly one try so every transport failure surfaces
    // here and can be re-dispatched elsewhere.
    copts.max_retries = 0;
    Client client(copts);

    std::vector<Request> cell_requests;
    cell_requests.reserve(batch.cell_indices.size());
    for (const std::size_t idx : batch.cell_indices)
        cell_requests.push_back(requests[idx]);

    Response outer;
    std::string error;
    std::vector<Response> parts;
    bool transport_ok =
        client.runBatch(cell_requests, outer, error);
    if (transport_ok && outer.status == Status::Ok) {
        std::string decode_error;
        if (!decodeBatchBody(outer.body, parts, decode_error) ||
            parts.size() != batch.cell_indices.size()) {
            transport_ok = false;
            error = "bad batch body: " + decode_error;
        }
    } else if (transport_ok) {
        // An outer non-Ok (Error / SHUTTING_DOWN on the whole frame)
        // applies to every cell in the batch.
        parts.assign(batch.cell_indices.size(), outer);
    }

    if (!transport_ok) {
        registry_.endDispatch(batch.backend,
                              batch.cell_indices.size(), false);
        for (const std::size_t idx : batch.cell_indices) {
            results[idx].response =
                finalError("transport: " + error);
            results[idx].backend = endpoint.id;
            retry[idx] = 1;
        }
        trace::hot::count(trace::hot::FleetBatchTransportFail);
        return;
    }

    bool refused = false;
    for (std::size_t k = 0; k < batch.cell_indices.size(); ++k) {
        const std::size_t idx = batch.cell_indices[k];
        results[idx].response = std::move(parts[k]);
        results[idx].backend = endpoint.id;
        const Status status = results[idx].response.status;
        if (status == Status::RetryLater ||
            status == Status::ShuttingDown) {
            refused = true;
            retry[idx] = 1;
        } else {
            retry[idx] = 0;
        }
    }
    // One observation per batch: a refusal (queue full / draining)
    // degrades the backend just like a drop, so load sheds away from
    // it, but a served batch with experiment-level errors is still a
    // *healthy* backend.
    registry_.endDispatch(batch.backend, batch.cell_indices.size(),
                          !refused);
}

std::vector<FleetCellResult>
FleetRouter::runCells(const std::vector<FleetCell> &cells)
{
    const std::size_t n = cells.size();
    std::vector<FleetCellResult> results(n);
    std::vector<Request> requests(n);
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
        requests[i].kind = RequestKind::Run;
        requests[i].experiment = cells[i].experiment;
        requests[i].args = cells[i].args;
        requests[i].deadline_ms = options_.deadline_ms;
        // Cell identity mirrors the harness: stream = cell index (plus
        // the fleet's base), attempt bumped per re-dispatch, so a
        // failed-over cell draws the same fresh fault schedule a
        // single-backend client retry would.
        requests[i].stream = options_.stream_base + i;
        requests[i].sequence = 0;
        requests[i].attempt = 0;
    }

    std::vector<int> attempts(n, 0);
    std::vector<std::size_t> first_backend(n, registry_.size());
    std::vector<std::size_t> last_backend(n, registry_.size());
    std::vector<std::size_t> pending(n);
    for (std::size_t i = 0; i < n; ++i)
        pending[i] = i;

    const auto backoff = std::chrono::duration<double, std::milli>(
        options_.retry_backoff_ms);
    bool first_round = true;
    while (!pending.empty()) {
        if (!first_round && options_.retry_backoff_ms > 0.0)
            std::this_thread::sleep_for(backoff);
        first_round = false;

        // 1. Assignment: serial over pending cells, in cell order.
        //    Placement is a pure function of the pick/outcome history.
        std::vector<Batch> batches;
        std::vector<std::size_t> open_batch(registry_.size(),
                                            SIZE_MAX);
        std::vector<std::size_t> unroutable;
        for (const std::size_t idx : pending) {
            keys[idx] = requestKey(requests[idx]);
            std::size_t owner = registry_.size();
            // Prefer anywhere but the backend that just failed this
            // cell; fall back to it when it is the only one left.
            if (!registry_.pickExcluding(keys[idx],
                                         last_backend[idx], owner) &&
                !registry_.pick(keys[idx], owner)) {
                unroutable.push_back(idx);
                continue;
            }
            registry_.beginDispatch(owner, 1);
            if (open_batch[owner] == SIZE_MAX ||
                batches[open_batch[owner]].cell_indices.size() >=
                    options_.batch_size) {
                open_batch[owner] = batches.size();
                Batch batch;
                batch.backend = owner;
                batch.stream = options_.stream_base +
                               kBatchStreamOffset +
                               next_batch_stream_++;
                batches.push_back(std::move(batch));
            }
            batches[open_batch[owner]].cell_indices.push_back(idx);
            last_backend[idx] = owner;
            if (first_backend[idx] == registry_.size())
                first_backend[idx] = owner;
        }
        for (const std::size_t idx : unroutable) {
            results[idx].response = finalError("no live backends");
            results[idx].attempts = attempts[idx] + 1;
            trace::hot::count(trace::hot::FleetCellsUnroutable);
        }

        // 2./3. Batch I/O, parallel up to `jobs` threads. Outcomes
        //       write disjoint cells, so parallelism cannot reorder
        //       or corrupt results.
        std::vector<std::uint8_t> retry(n, 0);
        if (!batches.empty()) {
            const std::size_t workers = std::min(
                options_.jobs == 0 ? batches.size() : options_.jobs,
                batches.size());
            if (workers <= 1) {
                for (const Batch &batch : batches)
                    dispatchBatch(batch, requests, results, retry);
            } else {
                std::atomic<std::size_t> next{0};
                std::vector<std::thread> threads;
                threads.reserve(workers);
                for (std::size_t w = 0; w < workers; ++w) {
                    threads.emplace_back([&] {
                        for (;;) {
                            const std::size_t b = next.fetch_add(1);
                            if (b >= batches.size())
                                return;
                            dispatchBatch(batches[b], requests,
                                          results, retry);
                        }
                    });
                }
                for (auto &thread : threads)
                    thread.join();
            }
        }

        // 4. Outcomes: final answers leave the pending set; transport
        //    failures and refusals re-enter it with a bumped attempt.
        std::vector<std::size_t> still_pending;
        for (const std::size_t idx : pending) {
            if (std::find(unroutable.begin(), unroutable.end(),
                          idx) != unroutable.end())
                continue;
            if (retry[idx] == 0) {
                results[idx].attempts = attempts[idx] + 1;
                results[idx].failed_over =
                    last_backend[idx] != first_backend[idx];
                trace::hot::count(trace::hot::FleetCells);
                trace::hot::observe(trace::hot::FleetCellAttempts,
                                    results[idx].attempts);
                continue;
            }
            ++attempts[idx];
            if (attempts[idx] > options_.cell_retries) {
                results[idx].response = finalError(
                    "cell failed after " +
                    std::to_string(attempts[idx]) + " tries: " +
                    results[idx].response.message);
                results[idx].attempts = attempts[idx];
                trace::hot::count(trace::hot::FleetCellsExhausted);
                continue;
            }
            requests[idx].attempt =
                static_cast<std::uint64_t>(attempts[idx]);
            trace::hot::count(trace::hot::FleetFailovers);
            still_pending.push_back(idx);
        }
        pending = std::move(still_pending);
    }
    return results;
}

bool
mergeCellStores(const std::vector<FleetCellResult> &results,
                report::ResultStore &merged, std::string &error)
{
    std::vector<report::ResultStore> stores(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].response.status != Status::Ok) {
            error = "cell " + std::to_string(i) + " failed (" +
                    std::string(statusName(
                        results[i].response.status)) +
                    "): " + results[i].response.message;
            return false;
        }
        std::string decode_error;
        if (!decodeStore(results[i].response.body, stores[i],
                         decode_error)) {
            error = "cell " + std::to_string(i) +
                    " body does not decode: " + decode_error;
            return false;
        }
    }

    // Tables merge in first-seen insertion order, so the merged
    // store's layout is a pure function of the cells' contents.
    std::vector<std::string> order;
    for (const auto &store : stores) {
        for (const auto &name : store.names()) {
            if (std::find(order.begin(), order.end(), name) ==
                order.end())
                order.push_back(name);
        }
    }

    for (const auto &name : order) {
        const report::ResultTable *first = nullptr;
        for (const auto &store : stores) {
            if ((first = store.find(name)) != nullptr)
                break;
        }
        std::vector<report::Column> columns = {
            {"cell", report::Type::Int}};
        for (const auto &column : first->schema().columns())
            columns.push_back(column);
        auto &out =
            merged.table(name, report::Schema(std::move(columns)));
        for (std::size_t i = 0; i < stores.size(); ++i) {
            const report::ResultTable *table = stores[i].find(name);
            if (table == nullptr)
                continue;  // A cell may not produce every table.
            if (!schemasMatch(table->schema(), first->schema())) {
                error = "table '" + name +
                        "' schema differs at cell " +
                        std::to_string(i);
                return false;
            }
            for (const auto &row : table->rows()) {
                std::vector<report::Value> cells;
                cells.reserve(row.size() + 1);
                cells.push_back(report::Value::integer(
                    static_cast<std::int64_t>(i)));
                for (const auto &value : row)
                    cells.push_back(value);
                out.addRow(std::move(cells));
            }
        }
    }
    return true;
}

} // namespace capo::serve
