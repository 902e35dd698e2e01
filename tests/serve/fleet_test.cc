/**
 * @file
 * Tests for the serve fleet tier: the backend registry's selection
 * strategies and health hysteresis, the consistent-hash ring's
 * stickiness and remap bound, sweep-spec expansion, and the end-to-end
 * router property the fleet exists for — a multi-backend sweep's
 * merged results are byte-identical to a single-backend fault-free
 * run, under every strategy, at --jobs 1 and 4, while backends die
 * mid-sweep (conn_io), refuse with RETRY_LATER, or flap between
 * DEGRADED and HEALTHY.
 *
 * Backends are in-process ExperimentServers over Unix sockets with
 * test-local experiment registrations, so the suite needs no spawned
 * processes and no capo_experiments link; scripts/fleet_smoke.sh
 * covers the real-process kill -9 path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/seed.hh"
#include "fault/fault.hh"
#include "harness/sweep_spec.hh"
#include "report/experiment.hh"
#include "report/table.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "serve/socket.hh"
#include "support/flags.hh"
#include "trace/hot_metrics.hh"

using namespace capo;
using namespace capo::serve;

namespace {

// ---------------------------------------------------------------------
// Test-local experiments.

/** Deterministic typed table from flags — the payload whose bytes
 *  must survive any amount of failover unchanged. */
const report::RegisterExperiment kEcho{[] {
    report::Experiment e;
    e.name = "fleet_test_echo";
    e.title = "fleet test echo";
    e.description = "test-local: deterministic table from flags";
    e.add_flags = [](support::Flags &flags) {
        flags.addInt("rows", 3, "rows to emit");
        flags.addDouble("scale", 0.1, "value scale");
    };
    e.run = [](report::ExperimentContext &context) {
        const auto rows = context.flags.getInt("rows");
        const double scale = context.flags.getDouble("scale");
        auto &table = context.store.table(
            "echo", report::Schema{{"i", report::Type::Int},
                                   {"x", report::Type::Double},
                                   {"tag", report::Type::String}});
        for (std::int64_t i = 0; i < rows; ++i)
            table.addRow({report::Value::integer(i),
                          report::Value::dbl(scale * (i + 1) / 7.0),
                          report::Value::str("r" + std::to_string(i))});
        return 0;
    };
    return e;
}()};

/** Occupies a backend's worker for a controllable time. */
const report::RegisterExperiment kSlow{[] {
    report::Experiment e;
    e.name = "fleet_test_slow";
    e.title = "fleet test slow";
    e.description = "test-local: sleeps before emitting one row";
    e.add_flags = [](support::Flags &flags) {
        flags.addInt("sleep-ms", 50, "how long to hold the worker");
        flags.addInt("id", 0, "distinct cache identity");
    };
    e.run = [](report::ExperimentContext &context) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            context.flags.getInt("sleep-ms")));
        auto &table = context.store.table(
            "slow", report::Schema{{"id", report::Type::Int}});
        table.addRow(
            {report::Value::integer(context.flags.getInt("id"))});
        return 0;
    };
    return e;
}()};

// ---------------------------------------------------------------------
// Helpers.

std::string
tempDir(const std::string &name)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     ("capo_fleet_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** A started backend over a Unix socket in its own temp dir. */
struct TestServer
{
    TestServer(ServerOptions options, const std::string &name)
        : dir(tempDir(name))
    {
        options.socket_path = dir + "/serve.sock";
        server = std::make_unique<ExperimentServer>(std::move(options));
        std::string error;
        EXPECT_TRUE(server->start(error)) << error;
    }

    ~TestServer()
    {
        server->drain();
        server->join();
    }

    std::string socketPath() const { return dir + "/serve.sock"; }

    std::string dir;
    std::unique_ptr<ExperimentServer> server;
};

using Fleet = std::vector<std::unique_ptr<TestServer>>;

std::vector<BackendEndpoint>
endpointsOf(const Fleet &fleet)
{
    std::vector<BackendEndpoint> endpoints;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        BackendEndpoint endpoint;
        endpoint.id = "b" + std::to_string(i);
        endpoint.socket_path = fleet[i]->socketPath();
        endpoints.push_back(std::move(endpoint));
    }
    return endpoints;
}

RouterOptions
fleetOptions(const Fleet &fleet, Strategy strategy, std::size_t jobs)
{
    RouterOptions options;
    options.backends = endpointsOf(fleet);
    options.strategy = strategy;
    options.jobs = jobs;
    options.batch_size = 4;
    options.cell_retries = 12;
    options.retry_backoff_ms = 1.0;
    return options;
}

/** 12 distinct echo configurations — a small sweep grid. */
std::vector<FleetCell>
sweepCells(int count = 12)
{
    static const char *kScales[] = {"0.125", "0.3", "0.7", "1.5"};
    std::vector<FleetCell> cells;
    for (int i = 0; i < count; ++i) {
        FleetCell cell;
        cell.experiment = "fleet_test_echo";
        cell.args = {"--rows", std::to_string(1 + i % 5), "--scale",
                     kScales[i % 4]};
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::string
mergedBytes(const std::vector<FleetCellResult> &results)
{
    report::ResultStore merged;
    std::string error;
    EXPECT_TRUE(mergeCellStores(results, merged, error)) << error;
    return encodeStore(merged);
}

/** The reference everything must match: one backend, no faults. */
std::string
referenceBytes(const std::vector<FleetCell> &cells,
               const std::string &name)
{
    ServerOptions options;
    options.workers = 2;
    Fleet fleet;
    fleet.push_back(std::make_unique<TestServer>(options, name));
    FleetRouter router(
        fleetOptions(fleet, Strategy::RoundRobin, 1));
    const auto results = router.runCells(cells);
    for (const auto &result : results)
        EXPECT_EQ(result.response.status, Status::Ok);
    return mergedBytes(results);
}

constexpr Strategy kStrategies[] = {Strategy::RoundRobin,
                                    Strategy::LeastConnections,
                                    Strategy::ConsistentHash};
constexpr std::size_t kJobs[] = {1, 4};

std::vector<BackendEndpoint>
namedEndpoints(int count)
{
    std::vector<BackendEndpoint> endpoints;
    for (int i = 0; i < count; ++i) {
        BackendEndpoint endpoint;
        endpoint.id = "b" + std::to_string(i);
        endpoint.socket_path = "/nonexistent";
        endpoints.push_back(std::move(endpoint));
    }
    return endpoints;
}

// ---------------------------------------------------------------------
// Sweep-spec expansion.

TEST(SweepSpecTest, ParsesListsAndRanges)
{
    harness::SweepAxis axis;
    std::string error;
    ASSERT_TRUE(harness::parseSweepAxis("scale=0.1,0.2,0.7", axis,
                                        error))
        << error;
    EXPECT_EQ(axis.flag, "scale");
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"0.1", "0.2", "0.7"}));

    ASSERT_TRUE(harness::parseSweepAxis("--seed=1:4", axis, error))
        << error;
    EXPECT_EQ(axis.flag, "seed");
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"1", "2", "3", "4"}));

    ASSERT_TRUE(harness::parseSweepAxis("n=0:10:5", axis, error));
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"0", "5", "10"}));

    EXPECT_FALSE(harness::parseSweepAxis("noequals", axis, error));
    EXPECT_FALSE(harness::parseSweepAxis("flag=", axis, error));
    EXPECT_FALSE(harness::parseSweepAxis("flag=1,,2", axis, error));
    EXPECT_FALSE(harness::parseSweepAxis("flag=4:1", axis, error));
    EXPECT_FALSE(harness::parseSweepAxis("flag=1:8:0", axis, error));
    EXPECT_FALSE(harness::parseSweepAxis("flag=1:x", axis, error));
}

TEST(SweepSpecTest, ExpandsCrossProductLastAxisFastest)
{
    harness::SweepAxis a, b;
    std::string error;
    ASSERT_TRUE(harness::parseSweepAxis("rows=1:2", a, error));
    ASSERT_TRUE(harness::parseSweepAxis("scale=0.5,2.0", b, error));

    const auto cells = harness::expandSweepCells(
        {a, b}, {"--invocations", "1"});
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0],
              (std::vector<std::string>{"--invocations", "1",
                                        "--rows", "1", "--scale",
                                        "0.5"}));
    EXPECT_EQ(cells[1],
              (std::vector<std::string>{"--invocations", "1",
                                        "--rows", "1", "--scale",
                                        "2.0"}));
    EXPECT_EQ(cells[3],
              (std::vector<std::string>{"--invocations", "1",
                                        "--rows", "2", "--scale",
                                        "2.0"}));

    // No axes: exactly one cell, the common args.
    const auto base = harness::expandSweepCells(
        {}, {"--rows", "3"});
    ASSERT_EQ(base.size(), 1u);
    EXPECT_EQ(base[0], (std::vector<std::string>{"--rows", "3"}));
}

// ---------------------------------------------------------------------
// Registry: strategies, health hysteresis.

TEST(BackendRegistryTest, StrategyNamesRoundTrip)
{
    for (Strategy strategy : kStrategies) {
        Strategy back;
        ASSERT_TRUE(parseStrategy(strategyName(strategy), back));
        EXPECT_EQ(back, strategy);
    }
    Strategy strategy;
    EXPECT_TRUE(parseStrategy("rr", strategy));
    EXPECT_EQ(strategy, Strategy::RoundRobin);
    EXPECT_FALSE(parseStrategy("random", strategy));
}

TEST(BackendRegistryTest, RoundRobinSpreadsEvenly)
{
    BackendRegistry registry(namedEndpoints(3),
                             Strategy::RoundRobin);
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 12; ++i) {
        std::size_t index = 99;
        ASSERT_TRUE(registry.pick(exec::mix64(i), index));
        ++counts[index];
    }
    EXPECT_EQ(counts, (std::vector<int>{4, 4, 4}));
}

TEST(BackendRegistryTest, LeastConnectionsFollowsInFlight)
{
    BackendRegistry registry(namedEndpoints(3),
                             Strategy::LeastConnections);
    registry.beginDispatch(0, 3);
    registry.beginDispatch(1, 1);
    std::size_t index = 99;
    ASSERT_TRUE(registry.pick(0, index));
    EXPECT_EQ(index, 2u); // zero in flight
    registry.beginDispatch(2, 2);
    ASSERT_TRUE(registry.pick(0, index));
    EXPECT_EQ(index, 1u); // one in flight
    registry.endDispatch(0, 3, true);
    ASSERT_TRUE(registry.pick(0, index));
    EXPECT_EQ(index, 0u); // back to zero; ties break low
}

TEST(BackendRegistryTest, HysteresisStepsDownFastAndRecoversSlowly)
{
    BackendRegistry registry(namedEndpoints(2),
                             Strategy::RoundRobin);
    // One failure: DEGRADED (degraded_after = 1).
    registry.reportProbe(1, false);
    EXPECT_EQ(registry.health(1), BackendHealth::Degraded);
    // Third consecutive failure: UNHEALTHY (unhealthy_after = 3).
    registry.reportProbe(1, false);
    registry.reportProbe(1, false);
    EXPECT_EQ(registry.health(1), BackendHealth::Unhealthy);

    // One success is not recovery (recover_after = 2)...
    registry.reportProbe(1, true);
    EXPECT_EQ(registry.health(1), BackendHealth::Unhealthy);
    // ...and a failure in between resets the streak.
    registry.reportProbe(1, false);
    registry.reportProbe(1, true);
    EXPECT_EQ(registry.health(1), BackendHealth::Unhealthy);

    // Two consecutive successes climb ONE level, not straight home.
    registry.reportProbe(1, true);
    EXPECT_EQ(registry.health(1), BackendHealth::Degraded);
    registry.reportProbe(1, true);
    registry.reportProbe(1, true);
    EXPECT_EQ(registry.health(1), BackendHealth::Healthy);
}

TEST(BackendRegistryTest, SelectionNeverPicksUnhealthy)
{
    BackendRegistry registry(namedEndpoints(3),
                             Strategy::RoundRobin);
    for (int i = 0; i < 3; ++i)
        registry.reportProbe(1, false); // b1 UNHEALTHY
    std::size_t index;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(registry.pick(exec::mix64(i), index));
        EXPECT_NE(index, 1u);
    }

    // Degrade b0: selection falls back to it only once b2 (the last
    // healthy backend) is excluded.
    registry.reportProbe(0, false);
    ASSERT_TRUE(registry.pick(0, index));
    EXPECT_EQ(index, 2u);
    ASSERT_TRUE(registry.pickExcluding(0, 2, index));
    EXPECT_EQ(index, 0u);

    // All UNHEALTHY: nothing to pick.
    for (int i = 0; i < 3; ++i) {
        registry.reportProbe(0, false);
        registry.reportProbe(2, false);
    }
    EXPECT_FALSE(registry.pick(0, index));
}

TEST(BackendRegistryTest, StatsTableReportsPerBackendRows)
{
    BackendRegistry registry(namedEndpoints(2),
                             Strategy::LeastConnections);
    registry.beginDispatch(0, 4);
    registry.endDispatch(0, 4, true);
    registry.reportProbe(1, false);

    const auto stats = registry.snapshot();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].id, "b0");
    EXPECT_EQ(stats[0].dispatched, 4u);
    EXPECT_EQ(stats[0].successes, 1u);
    EXPECT_EQ(stats[1].failures, 1u);
    EXPECT_EQ(stats[1].probes, 1u);

    const auto table = registry.statsTable();
    ASSERT_EQ(table.rows().size(), 2u);
    EXPECT_EQ(table.rows()[0][0].asString(), "b0");
    EXPECT_EQ(table.rows()[0][1].asString(), "HEALTHY");
    EXPECT_EQ(table.rows()[1][1].asString(), "DEGRADED");
}

// ---------------------------------------------------------------------
// Consistent hashing: stickiness and the remap bound.

TEST(ConsistentHashTest, IdenticalKeysLandOnTheSameBackend)
{
    BackendRegistry registry(namedEndpoints(5),
                             Strategy::ConsistentHash);
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t key = exec::mix64(0xabc0 + i);
        std::size_t first, again;
        ASSERT_TRUE(registry.pick(key, first));
        ASSERT_TRUE(registry.pick(key, again));
        EXPECT_EQ(first, again);
        EXPECT_EQ(registry.ringOwner(key), first);
    }
}

TEST(ConsistentHashTest, RemovingOneBackendRemapsOnlyItsShare)
{
    constexpr int kBackends = 10;
    constexpr int kKeys = 4096;
    const auto full_endpoints = namedEndpoints(kBackends);
    auto reduced_endpoints = full_endpoints;
    reduced_endpoints.erase(reduced_endpoints.begin() + 3); // drop b3

    BackendRegistry full(full_endpoints, Strategy::ConsistentHash);
    BackendRegistry reduced(reduced_endpoints,
                            Strategy::ConsistentHash);

    int owned_by_removed = 0;
    for (int i = 0; i < kKeys; ++i) {
        const std::uint64_t key = exec::mix64(0x51ee7 + i);
        const auto &before =
            full_endpoints[full.ringOwner(key)].id;
        const auto &after =
            reduced_endpoints[reduced.ringOwner(key)].id;
        if (before == "b3") {
            // The removed backend's keys must move...
            ++owned_by_removed;
            EXPECT_NE(after, "b3");
        } else {
            // ...and nobody else's may: ring points depend only on
            // their own backend id, so survivors keep their ranges.
            EXPECT_EQ(after, before) << "key " << i;
        }
    }
    // The remapped fraction is the removed backend's share: about
    // 1/N, and certainly no more than 1/N plus virtual-node slack.
    const double fraction =
        static_cast<double>(owned_by_removed) / kKeys;
    EXPECT_GT(fraction, 0.02);
    EXPECT_LT(fraction, 1.0 / kBackends + 0.08);
}

TEST(ConsistentHashTest, RingSkipsIneligibleBackends)
{
    BackendRegistry registry(namedEndpoints(4),
                             Strategy::ConsistentHash);
    const std::uint64_t key = exec::mix64(0x777);
    std::size_t owner;
    ASSERT_TRUE(registry.pick(key, owner));

    // Quarantine the owner: the key walks clockwise to a live
    // backend, deterministically.
    for (int i = 0; i < 3; ++i)
        registry.reportProbe(owner, false);
    std::size_t fallback;
    ASSERT_TRUE(registry.pick(key, fallback));
    EXPECT_NE(fallback, owner);
    std::size_t fallback_again;
    ASSERT_TRUE(registry.pick(key, fallback_again));
    EXPECT_EQ(fallback_again, fallback);

    // Recovery restores the original owner (stickiness is about the
    // ring, not about accidents of history).
    for (int i = 0; i < 4; ++i)
        registry.reportProbe(owner, true);
    std::size_t recovered;
    ASSERT_TRUE(registry.pick(key, recovered));
    EXPECT_EQ(recovered, owner);
}

// ---------------------------------------------------------------------
// End-to-end: merged results are byte-identical to a single-backend
// fault-free run, whatever the strategy, parallelism, or fault load.

TEST(FleetRouterTest, HealthyFleetMatchesSingleBackendBitwise)
{
    const auto cells = sweepCells();
    const auto reference = referenceBytes(cells, "healthy_ref");

    int variant = 0;
    for (Strategy strategy : kStrategies) {
        for (std::size_t jobs : kJobs) {
            Fleet fleet;
            for (int b = 0; b < 3; ++b) {
                ServerOptions options;
                options.workers = 2;
                fleet.push_back(std::make_unique<TestServer>(
                    options, "healthy_" + std::to_string(variant) +
                                 "_b" + std::to_string(b)));
            }
            FleetRouter router(
                fleetOptions(fleet, strategy, jobs));
            const auto results = router.runCells(cells);
            for (const auto &result : results)
                EXPECT_EQ(result.response.status, Status::Ok);
            EXPECT_EQ(mergedBytes(results), reference)
                << strategyName(strategy) << " jobs " << jobs;
            ++variant;
        }
    }
}

TEST(FleetRouterTest, BackendKilledMidSweepFailsOverBitwise)
{
    const auto cells = sweepCells();
    const auto reference = referenceBytes(cells, "killed_ref");

    int variant = 0;
    for (Strategy strategy : kStrategies) {
        for (std::size_t jobs : kJobs) {
            // b1's connections die with certainty: every batch sent
            // to it is dropped mid-exchange, the in-process stand-in
            // for kill -9 (which scripts/fleet_smoke.sh does for
            // real). Each backend seeds its plan independently.
            Fleet fleet;
            for (int b = 0; b < 3; ++b) {
                ServerOptions options;
                options.workers = 2;
                if (b == 1) {
                    options.faults.seed = fault::backendSeed(
                        99, "b" + std::to_string(b));
                    options.faults.setRate(fault::Site::ConnIo, 1.0);
                    options.conn_retries = 0;
                }
                fleet.push_back(std::make_unique<TestServer>(
                    options, "killed_" + std::to_string(variant) +
                                 "_b" + std::to_string(b)));
            }
            FleetRouter router(
                fleetOptions(fleet, strategy, jobs));
            const auto results = router.runCells(cells);

            int failovers = 0;
            for (const auto &result : results) {
                EXPECT_EQ(result.response.status, Status::Ok);
                EXPECT_NE(result.backend, "b1");
                failovers += result.failed_over ? 1 : 0;
            }
            EXPECT_EQ(mergedBytes(results), reference)
                << strategyName(strategy) << " jobs " << jobs;

            const auto stats = router.registry().snapshot();
            if (strategy != Strategy::ConsistentHash) {
                // Rotation and least-connections provably hand b1
                // cells in round one; they all must have moved.
                EXPECT_GT(failovers, 0);
                EXPECT_GT(stats[1].failures, 0u);
                EXPECT_NE(router.registry().health(1),
                          BackendHealth::Healthy);
            }
            ++variant;
        }
    }
}

TEST(FleetRouterTest, RetryLaterRefusalsFailOverBitwise)
{
    const auto cells = sweepCells(8);
    const auto reference = referenceBytes(cells, "retry_ref");

    int variant = 0;
    for (Strategy strategy : kStrategies) {
        Fleet fleet;
        for (int b = 0; b < 3; ++b) {
            ServerOptions options;
            if (b == 1) {
                // One worker, one queue slot: once both are taken,
                // every cell answered RETRY_LATER.
                options.workers = 1;
                options.queue_capacity = 1;
            } else {
                options.workers = 2;
            }
            fleet.push_back(std::make_unique<TestServer>(
                options, "retry_" + std::to_string(variant) + "_b" +
                             std::to_string(b)));
        }

        // Pre-warm b0 and b2: in-process servers share one global
        // run mutex (stdout capture is process-wide), so while the
        // occupying run below sleeps, no other backend could
        // *execute* either. With their caches warm, b0/b2 answer
        // instantly from replay and only b1's refusals are in play.
        // Caches are per-server, so each survivor gets the full
        // sweep, not a share of it — the fleet run's partition
        // must hit no matter which backend a cell lands on.
        for (int b : {0, 2}) {
            RouterOptions warm;
            warm.backends = {endpointsOf(fleet)[b]};
            FleetRouter warmer(std::move(warm));
            for (const auto &result : warmer.runCells(cells))
                ASSERT_EQ(result.response.status, Status::Ok);
        }

        // Occupy b1's worker and queue for longer than the sweep
        // takes: a slow run holds the worker, a second sits queued,
        // so every batch cell sent to b1 answers RETRY_LATER.
        std::string error;
        const int fd_a =
            connectUnix(fleet[1]->socketPath(), error);
        ASSERT_GE(fd_a, 0) << error;
        Request slow;
        slow.kind = RequestKind::Run;
        slow.experiment = "fleet_test_slow";
        slow.args = {"--sleep-ms", "1200", "--id", "1"};
        slow.stream = 9001;
        ASSERT_TRUE(sendFrame(fd_a, encodeRequest(slow)));
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const int fd_b =
            connectUnix(fleet[1]->socketPath(), error);
        ASSERT_GE(fd_b, 0) << error;
        slow.args = {"--sleep-ms", "10", "--id", "2"};
        slow.stream = 9002;
        ASSERT_TRUE(sendFrame(fd_b, encodeRequest(slow)));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

        for (std::size_t jobs : kJobs) {
            FleetRouter router(
                fleetOptions(fleet, strategy, jobs));
            const auto results = router.runCells(cells);
            for (const auto &result : results)
                EXPECT_EQ(result.response.status, Status::Ok);
            EXPECT_EQ(mergedBytes(results), reference)
                << strategyName(strategy) << " jobs " << jobs;
            if (strategy != Strategy::ConsistentHash) {
                EXPECT_GT(router.registry().snapshot()[1].failures,
                          0u);
            }
            // The occupied backend must have refused, server-side.
            EXPECT_GT(fleet[1]->server->healthSnapshot().retry_later,
                      0u)
                << strategyName(strategy) << " jobs " << jobs;
        }

        // Drain the occupying requests so the backends exit clean.
        std::string payload;
        Response response;
        ASSERT_TRUE(recvFrame(fd_a, payload, error)) << error;
        ASSERT_TRUE(decodeResponse(payload, response, error));
        EXPECT_EQ(response.status, Status::Ok);
        ASSERT_TRUE(recvFrame(fd_b, payload, error)) << error;
        ASSERT_TRUE(decodeResponse(payload, response, error));
        EXPECT_EQ(response.status, Status::Ok);
        closeSocket(fd_a);
        closeSocket(fd_b);
        ++variant;
    }
}

TEST(FleetRouterTest, FlappingBackendDegradesRecoversAndStaysBitwise)
{
    const auto cells = sweepCells();
    const auto reference = referenceBytes(cells, "flap_ref");

    int variant = 0;
    for (Strategy strategy : kStrategies) {
        for (std::size_t jobs : kJobs) {
            // b1 drops a bit under half its connections: it flaps
            // between HEALTHY and DEGRADED while the sweep runs.
            Fleet fleet;
            for (int b = 0; b < 3; ++b) {
                ServerOptions options;
                options.workers = 2;
                if (b == 1) {
                    options.faults.seed = fault::backendSeed(
                        7, "b" + std::to_string(b));
                    options.faults.setRate(fault::Site::ConnIo,
                                           0.45);
                    options.conn_retries = 0;
                }
                fleet.push_back(std::make_unique<TestServer>(
                    options, "flap_" + std::to_string(variant) +
                                 "_b" + std::to_string(b)));
            }
            FleetRouter router(
                fleetOptions(fleet, strategy, jobs));
            const auto results = router.runCells(cells);
            for (const auto &result : results)
                EXPECT_EQ(result.response.status, Status::Ok);
            EXPECT_EQ(mergedBytes(results), reference)
                << strategyName(strategy) << " jobs " << jobs;

            // Probes eventually string two successes together and
            // walk b1 back to HEALTHY, one level at a time.
            for (int i = 0; i < 300 && router.registry().health(1) !=
                                           BackendHealth::Healthy;
                 ++i)
                router.probeAll();
            EXPECT_EQ(router.registry().health(1),
                      BackendHealth::Healthy)
                << strategyName(strategy) << " jobs " << jobs;
            ++variant;
        }
    }
}

TEST(FleetRouterTest, UnreachableBackendFailsOver)
{
    const auto cells = sweepCells(6);
    const auto reference = referenceBytes(cells, "unreach_ref");

    Fleet fleet;
    for (int b = 0; b < 2; ++b) {
        ServerOptions options;
        fleet.push_back(std::make_unique<TestServer>(
            options, "unreach_b" + std::to_string(b)));
    }
    auto options = fleetOptions(fleet, Strategy::RoundRobin, 2);
    BackendEndpoint ghost;
    ghost.id = "b2";
    ghost.socket_path = fleet[0]->dir + "/nobody-listens.sock";
    options.backends.push_back(ghost);

    trace::hot::setEnabled(true);
    const auto before = trace::hot::snapshot();
    FleetRouter router(std::move(options));
    const auto results = router.runCells(cells);
    for (const auto &result : results) {
        EXPECT_EQ(result.response.status, Status::Ok);
        EXPECT_NE(result.backend, "b2");
    }
    EXPECT_EQ(mergedBytes(results), reference);

    const auto delta = trace::hot::snapshot().since(before);
    trace::hot::setEnabled(false);
    EXPECT_EQ(delta.counter(trace::hot::FleetCells), cells.size());
    EXPECT_GT(delta.counter(trace::hot::FleetFailovers), 0u);
    EXPECT_GT(delta.counter(trace::hot::FleetBatchTransportFail), 0u);
    EXPECT_GT(router.registry().snapshot()[2].failures, 0u);
}

TEST(FleetRouterTest, AllBackendsDeadFailsCellsCleanly)
{
    const auto dir = tempDir("all_dead");
    RouterOptions options;
    for (int b = 0; b < 2; ++b) {
        BackendEndpoint ghost;
        ghost.id = "b" + std::to_string(b);
        ghost.socket_path = dir + "/ghost" + std::to_string(b) +
                            ".sock";
        options.backends.push_back(ghost);
    }
    options.cell_retries = 2;
    options.retry_backoff_ms = 0.5;
    options.jobs = 2;
    FleetRouter router(std::move(options));

    trace::hot::setEnabled(true);
    const auto before = trace::hot::snapshot();
    const auto results = router.runCells(sweepCells(3));
    const auto delta = trace::hot::snapshot().since(before);
    trace::hot::setEnabled(false);
    ASSERT_EQ(results.size(), 3u);
    for (const auto &result : results)
        EXPECT_EQ(result.response.status, Status::Error);
    // Every cell ends either unroutable (no live backend left to
    // pick) or exhausted (out of retries); none completes.
    EXPECT_EQ(delta.counter(trace::hot::FleetCellsUnroutable) +
                  delta.counter(trace::hot::FleetCellsExhausted),
              3u);
    EXPECT_EQ(delta.counter(trace::hot::FleetCells), 0u);

    report::ResultStore merged;
    std::string error;
    EXPECT_FALSE(mergeCellStores(results, merged, error));
    EXPECT_FALSE(error.empty());
}

TEST(FleetRouterTest, ConsistentHashStickinessReplaysFromCache)
{
    const auto cells = sweepCells();
    Fleet fleet;
    for (int b = 0; b < 3; ++b) {
        ServerOptions options;
        options.workers = 2;
        fleet.push_back(std::make_unique<TestServer>(
            options, "sticky_b" + std::to_string(b)));
    }
    FleetRouter router(
        fleetOptions(fleet, Strategy::ConsistentHash, 4));

    const auto first = router.runCells(cells);
    for (const auto &result : first) {
        ASSERT_EQ(result.response.status, Status::Ok);
        EXPECT_FALSE(result.response.cached);
    }

    // The same sweep again: every cell hashes to the same backend,
    // whose cache replays the exact bytes without re-running.
    const auto second = router.runCells(cells);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < second.size(); ++i) {
        ASSERT_EQ(second[i].response.status, Status::Ok);
        EXPECT_TRUE(second[i].response.cached) << "cell " << i;
        EXPECT_EQ(second[i].backend, first[i].backend);
        EXPECT_EQ(second[i].response.body, first[i].response.body);
    }
    EXPECT_EQ(mergedBytes(second), mergedBytes(first));
}

TEST(FleetRouterTest, MergeRejectsSchemaDisagreement)
{
    // Two hand-built cell results whose "echo" schemas disagree.
    report::ResultStore store_a;
    store_a.table("t", report::Schema{{"x", report::Type::Int}})
        .addRow({report::Value::integer(1)});
    report::ResultStore store_b;
    store_b.table("t", report::Schema{{"x", report::Type::Double}})
        .addRow({report::Value::dbl(1.0)});

    std::vector<FleetCellResult> results(2);
    results[0].response.status = Status::Ok;
    results[0].response.body = encodeStore(store_a);
    results[1].response.status = Status::Ok;
    results[1].response.body = encodeStore(store_b);

    report::ResultStore merged;
    std::string error;
    EXPECT_FALSE(mergeCellStores(results, merged, error));
    EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(FleetRouterTest, MergedStoreCarriesCellColumnInCellOrder)
{
    Fleet fleet;
    ServerOptions options;
    fleet.push_back(std::make_unique<TestServer>(options, "merge"));
    FleetRouter router(
        fleetOptions(fleet, Strategy::RoundRobin, 1));

    const auto cells = sweepCells(3);
    const auto results = router.runCells(cells);
    report::ResultStore merged;
    std::string error;
    ASSERT_TRUE(mergeCellStores(results, merged, error)) << error;

    const auto *table = merged.find("echo");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->schema().columns().size(), 4u);
    EXPECT_EQ(table->schema().columns()[0].name, "cell");

    // Rows arrive grouped by cell, cells in sweep order.
    std::int64_t last_cell = -1;
    for (const auto &row : table->rows()) {
        EXPECT_GE(row[0].asInt(), last_cell);
        last_cell = row[0].asInt();
    }
    EXPECT_EQ(last_cell, 2);
}

} // namespace
