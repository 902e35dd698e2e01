/**
 * @file
 * capo-client: command-line client for a capo-serve daemon.
 *
 *     capo-client --socket /tmp/capo.sock run tab01_metric_catalog \
 *         -- --invocations 2 --seed 42
 *     capo-client --socket /tmp/capo.sock health
 *     capo-client --socket /tmp/capo.sock shutdown
 *
 * Experiment arguments go after `--`, exactly as `capo-bench run`
 * takes them. Result tables render in the same ASCII form capo-bench
 * prints; --raw dumps the wire body instead.
 *
 * Exit codes: 0 OK, 1 request failed or unreachable, 2 usage.
 */

#include <iostream>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "support/flags.hh"

int
main(int argc, char **argv)
{
    using namespace capo;

    // Split "client flags / subcommand" from "experiment args": the
    // client's parser must not eat --invocations and friends.
    std::vector<char *> head;
    std::vector<std::string> run_args;
    bool past_separator = false;
    for (int i = 0; i < argc; ++i) {
        if (!past_separator && std::string(argv[i]) == "--") {
            past_separator = true;
            continue;
        }
        if (past_separator)
            run_args.push_back(argv[i]);
        else
            head.push_back(argv[i]);
    }

    support::Flags flags(
        "capo-client: submit runs to a capo-serve daemon\n"
        "  commands: run <experiment> [-- args...] | health | shutdown");
    flags.addString("socket", "", "Unix-domain socket path");
    flags.addInt("port", 0, "loopback TCP port (when no --socket)");
    flags.addInt("stream", 0,
                 "fault stream id (concurrent clients pick distinct "
                 "streams)");
    flags.addDouble("deadline-ms", 0.0,
                    "per-request deadline (0 = server default)");
    flags.addInt("retries", 8,
                 "resend attempts after drops or RETRY_LATER");
    flags.addDouble("backoff-ms", 10.0, "delay between retries");
    flags.addBool("raw", false,
                  "print the raw wire body instead of ASCII tables");
    flags.parse(static_cast<int>(head.size()), head.data());

    const auto &pos = flags.positionals();
    if (pos.empty()) {
        std::cerr << "capo-client: missing command "
                     "(run|health|shutdown)\n";
        return 2;
    }
    const std::string &command = pos[0];
    if (flags.getString("socket").empty() && flags.getInt("port") == 0) {
        std::cerr << "capo-client: need --socket PATH or --port N\n";
        return 2;
    }

    serve::ClientOptions options;
    options.socket_path = flags.getString("socket");
    options.tcp_port = static_cast<int>(flags.getInt("port"));
    options.stream = static_cast<std::uint64_t>(flags.getInt("stream"));
    options.max_retries = static_cast<int>(flags.getInt("retries"));
    options.retry_backoff_ms = flags.getDouble("backoff-ms");
    serve::Client client(options);

    serve::Response response;
    std::string error;
    bool ok = false;
    if (command == "run") {
        if (pos.size() < 2) {
            std::cerr << "capo-client: run needs an experiment name\n";
            return 2;
        }
        ok = client.run(pos[1], run_args,
                        flags.getDouble("deadline-ms"), response,
                        error);
    } else if (command == "health") {
        ok = client.health(response, error);
    } else if (command == "shutdown") {
        ok = client.shutdownServer(response, error);
    } else {
        std::cerr << "capo-client: unknown command '" << command
                  << "'\n";
        return 2;
    }

    if (!ok) {
        std::cerr << "capo-client: " << error << "\n";
        return 1;
    }

    std::cout << "status: " << serve::statusName(response.status)
              << (response.cached ? " (cached)" : "") << "\n";
    if (!response.message.empty())
        std::cout << "message: " << response.message << "\n";

    if (!response.body.empty()) {
        if (flags.getBool("raw")) {
            std::cout << response.body;
        } else {
            report::ResultStore store;
            std::string decode_error;
            if (!serve::decodeStore(response.body, store,
                                    decode_error)) {
                std::cerr << "capo-client: bad body: " << decode_error
                          << "\n";
                return 1;
            }
            for (const auto &name : store.names()) {
                std::cout << "\n== " << name << " ==\n";
                store.find(name)->renderAscii(std::cout);
            }
        }
    }
    return response.status == serve::Status::Ok ? 0 : 1;
}
