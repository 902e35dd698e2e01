/**
 * @file
 * capo-fleet: route a sweep across N capo-serve backends.
 *
 *     capo-fleet --backends /tmp/b0.sock,/tmp/b1.sock,/tmp/b2.sock \
 *         --strategy consistent-hash \
 *         run tab01_metric_catalog --vary seed=1:12 \
 *         -- --invocations 1 --iterations 1
 *     capo-fleet --backends /tmp/b0.sock,/tmp/b1.sock health
 *
 * `run` expands every --vary axis into the cross-product of sweep
 * cells (src/harness/sweep_spec.hh), routes them through the
 * FleetRouter with health-driven failover, merges the per-cell result
 * stores, renders them, and — with --artifacts — writes one CSV per
 * merged table. The merged CSVs are byte-identical to a
 * single-backend fault-free run of the same sweep: results never
 * depend on placement, strategy or failover history. The backend
 * stats table is followed by the router's fleet.* hot-tier counts
 * (failovers, probe outcomes, transport failures, unroutable and
 * exhausted cells).
 *
 * Exit codes: 0 all cells Ok, 1 any cell failed or fleet unreachable,
 * 2 usage.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/sweep_spec.hh"
#include "report/artifact.hh"
#include "report/table.hh"
#include "serve/router.hh"
#include "support/flags.hh"
#include "trace/hot_metrics.hh"

namespace {

using namespace capo;

/** The backend stats table, then one row per fleet.* hot counter. */
void
printStats(serve::FleetRouter &router)
{
    router.registry().statsTable().renderAscii(std::cout);
    const auto hot = trace::hot::snapshot();
    report::AsciiTable counters({"counter", "value"});
    for (std::size_t i = 0; i < trace::hot::kCounterCount; ++i) {
        const auto counter = static_cast<trace::hot::Counter>(i);
        const std::string name = trace::hot::counterName(counter);
        if (name.rfind("fleet.", 0) == 0)
            counters.row({name, std::to_string(hot.counter(counter))});
    }
    counters.render(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    // The router records its failovers and probe outcomes in the hot
    // tier; printStats() reads them back.
    trace::hot::setEnabled(true);

    // Split off "-- experiment args" first, then pull the repeatable
    // --vary declarations out of the head: the fleet's parser takes
    // each flag once, sweeps declare one axis per --vary.
    std::vector<char *> head;
    std::vector<std::string> run_args;
    std::vector<std::string> vary_decls;
    bool past_separator = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!past_separator && arg == "--") {
            past_separator = true;
            continue;
        }
        if (past_separator) {
            run_args.push_back(arg);
        } else if (arg == "--vary") {
            if (i + 1 >= argc) {
                std::cerr << "capo-fleet: --vary needs flag=spec\n";
                return 2;
            }
            vary_decls.push_back(argv[++i]);
        } else {
            head.push_back(argv[i]);
        }
    }

    support::Flags flags(
        "capo-fleet: shard a sweep across capo-serve backends\n"
        "  commands: run <experiment> [--vary flag=spec]... "
        "[-- args...] | health");
    flags.addString("backends", "",
                    "comma-separated backend sockets (unix paths, or "
                    "tcp:PORT entries)");
    flags.addString("strategy", "round-robin",
                    "round-robin | least-connections | "
                    "consistent-hash");
    flags.addInt("jobs", 4, "concurrent batch dispatches");
    flags.addInt("batch", 8, "max cells per BATCH frame");
    flags.addInt("retries", 8, "re-dispatch attempts per cell");
    flags.addDouble("backoff-ms", 5.0, "delay between retry rounds");
    flags.addDouble("deadline-ms", 0.0,
                    "per-cell deadline (0 = backend default)");
    flags.addInt("stream-base", 0, "base fault stream id");
    flags.addString("artifacts", "",
                    "write merged per-table CSVs under this directory");
    flags.addBool("quiet", false, "suppress the ASCII table render");
    flags.parse(static_cast<int>(head.size()), head.data());

    std::vector<serve::BackendEndpoint> backends;
    {
        const std::string spec = flags.getString("backends");
        std::size_t pos = 0;
        while (pos <= spec.size() && !spec.empty()) {
            const auto comma = spec.find(',', pos);
            const std::string entry =
                comma == std::string::npos
                    ? spec.substr(pos)
                    : spec.substr(pos, comma - pos);
            if (!entry.empty()) {
                serve::BackendEndpoint endpoint;
                endpoint.id = "b" + std::to_string(backends.size());
                if (entry.rfind("tcp:", 0) == 0)
                    endpoint.tcp_port =
                        std::atoi(entry.c_str() + 4);
                else
                    endpoint.socket_path = entry;
                backends.push_back(std::move(endpoint));
            }
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }
    if (backends.empty()) {
        std::cerr << "capo-fleet: need --backends s1,s2,...\n";
        return 2;
    }

    serve::RouterOptions options;
    options.backends = backends;
    if (!serve::parseStrategy(flags.getString("strategy"),
                              options.strategy)) {
        std::cerr << "capo-fleet: unknown strategy '"
                  << flags.getString("strategy") << "'\n";
        return 2;
    }
    options.jobs =
        static_cast<std::size_t>(flags.getInt("jobs") < 0
                                     ? 0
                                     : flags.getInt("jobs"));
    options.batch_size = static_cast<std::size_t>(
        flags.getInt("batch") < 1 ? 1 : flags.getInt("batch"));
    options.cell_retries = static_cast<int>(flags.getInt("retries"));
    options.retry_backoff_ms = flags.getDouble("backoff-ms");
    options.deadline_ms = flags.getDouble("deadline-ms");
    options.stream_base =
        static_cast<std::uint64_t>(flags.getInt("stream-base"));
    serve::FleetRouter router(std::move(options));

    const auto &pos = flags.positionals();
    if (pos.empty()) {
        std::cerr << "capo-fleet: missing command (run|health)\n";
        return 2;
    }
    const std::string &command = pos[0];

    if (command == "health") {
        router.probeAll();
        printStats(router);
        return 0;
    }
    if (command != "run") {
        std::cerr << "capo-fleet: unknown command '" << command
                  << "'\n";
        return 2;
    }
    if (pos.size() < 2) {
        std::cerr << "capo-fleet: run needs an experiment name\n";
        return 2;
    }
    const std::string &experiment = pos[1];

    std::vector<harness::SweepAxis> axes;
    for (const auto &decl : vary_decls) {
        harness::SweepAxis axis;
        std::string error;
        if (!harness::parseSweepAxis(decl, axis, error)) {
            std::cerr << "capo-fleet: " << error << "\n";
            return 2;
        }
        axes.push_back(std::move(axis));
    }

    std::vector<serve::FleetCell> cells;
    for (auto &args : harness::expandSweepCells(axes, run_args)) {
        serve::FleetCell cell;
        cell.experiment = experiment;
        cell.args = std::move(args);
        cells.push_back(std::move(cell));
    }

    const auto results = router.runCells(cells);

    report::ResultStore merged;
    std::string error;
    const bool merged_ok = mergeCellStores(results, merged, error);

    if (!flags.getBool("quiet")) {
        std::cout << "fleet: " << cells.size() << " cell(s) over "
                  << backends.size() << " backend(s), strategy "
                  << serve::strategyName(router.options().strategy)
                  << "\n";
        printStats(router);
    }

    if (!merged_ok) {
        std::cerr << "capo-fleet: " << error << "\n";
        return 1;
    }

    const std::string artifacts = flags.getString("artifacts");
    if (!artifacts.empty()) {
        report::ArtifactSink sink(artifacts);
        for (const auto &name : merged.names()) {
            sink.writeTable("fleet_" + name + ".csv",
                            *merged.find(name), report::Format::Csv);
        }
    }
    if (!flags.getBool("quiet")) {
        for (const auto &name : merged.names()) {
            std::cout << "\n== " << name << " ==\n";
            merged.find(name)->renderAscii(std::cout);
        }
    }
    return 0;
}
