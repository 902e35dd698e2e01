/**
 * @file
 * Fuzz tests for the text formats that cross a trust boundary.
 *
 * The experiment-definition parser: for arbitrary (seeded) mutations
 * of valid plans — and for outright garbage — the parser must either
 * return a plan or throw ParseError. Anything else (a crash, an
 * uncaught std::invalid_argument from a raw stoi, a fatal() exit) is
 * a bug; several of those were fixed by the guarded conversions this
 * suite pins down.
 *
 * The serve frame decoders (decodeRequest, decodeResponse,
 * decodeBatchBody, decodeStore): every truncation and seeded byte
 * mutation of a real encoding must decode or be rejected with an
 * error — never crash or throw.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/plan_file.hh"
#include "report/table.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/rng.hh"
#include "trace/hot_metrics.hh"

namespace capo {
namespace {

using harness::ParseError;
using harness::parsePlan;

/** The contract under test: parse, or throw ParseError. */
void
mustParseOrThrowParseError(const std::string &text)
{
    try {
        const auto plan = parsePlan(text);
        // Structural sanity on success: resolved lists are non-empty.
        EXPECT_FALSE(plan.workloads.empty());
        EXPECT_FALSE(plan.collectors.empty());
        EXPECT_FALSE(plan.heap_factors.empty());
    } catch (const ParseError &) {
        // The one sanctioned failure mode.
    }
    // Any other exception propagates and fails the test.
}

const char *const kValidPlan =
    "# exercise every key\n"
    "experiment   = lbo\n"
    "workloads    = lusearch, h2\n"
    "collectors   = serial, g1, zgc\n"
    "heap_factors = 1.5, 2, 3, 6\n"
    "iterations   = 3\n"
    "invocations  = 2\n"
    "jobs         = 2\n"
    "size         = small\n"
    "seed         = 1234\n"
    "trace_out    = out.json\n"
    "trace_categories = gc, harness\n"
    "metrics_interval = 5\n"
    "faults       = alloc=0.01,gc=0.005\n"
    "fault_seed   = 7\n"
    "retries      = 2\n"
    "checkpoint   = run.ckpt\n";

TEST(PlanFuzzTest, TruncationsNeverCrash)
{
    const std::string base = kValidPlan;
    for (std::size_t cut = 0; cut <= base.size(); ++cut)
        mustParseOrThrowParseError(base.substr(0, cut));
}

class PlanFuzz : public ::testing::TestWithParam<int>
{
};

/** 1-8 random edits of @p text: byte flips, deletions and inserted
 *  separator characters. */
std::string
mutate(std::string text, support::Rng &rng)
{
    const int edits = 1 + static_cast<int>(rng.uniformInt(8));
    for (int e = 0; e < edits; ++e) {
        const auto pos =
            static_cast<std::size_t>(rng.uniformInt(text.size()));
        switch (rng.uniformInt(3)) {
          case 0:  // flip a byte to random printable-ish junk
            text[pos] = static_cast<char>(rng.uniformInt(256));
            break;
          case 1:  // delete a byte
            text.erase(pos, 1);
            break;
          default:  // insert a hostile character
            text.insert(pos, 1, "=#,\n\t -.e9x"[rng.uniformInt(11)]);
            break;
        }
        if (text.empty())
            break;
    }
    return text;
}

TEST_P(PlanFuzz, RandomByteMutationsNeverCrash)
{
    support::Rng rng(GetParam());
    for (int round = 0; round < 400; ++round)
        mustParseOrThrowParseError(mutate(kValidPlan, rng));
}

TEST_P(PlanFuzz, RandomKeyValueSplicesNeverCrash)
{
    support::Rng rng(GetParam());
    const std::vector<std::string> keys = {
        "experiment", "workloads",   "collectors",
        "heap_factors", "iterations", "invocations",
        "jobs",       "size",        "seed",
        "trace_out",  "trace_categories", "metrics_interval",
        "faults",     "fault_seed",  "retries",
        "checkpoint", "bogus",       "",
    };
    const std::vector<std::string> values = {
        "",      "0",        "1",     "-1",     "1e308",  "-1e308",
        "nan",   "inf",      "0.5",   "lbo",    "minheap", "all",
        "none",  "x",        "5x",    "1,2,3",  ",",       ",,,",
        "99999999999999999999", "-99999999999999999999",
        "alloc=0.5", "alloc=2", "alloc=", "=0.5", "g1", "serial, bogus",
        "\t",    " ",        "0x10",  "1.5.2",  "--",     "lusearch",
    };
    for (int round = 0; round < 400; ++round) {
        std::string text;
        const int lines = 1 + static_cast<int>(rng.uniformInt(12));
        for (int l = 0; l < lines; ++l) {
            // Duplicate keys are deliberately likely: last-wins must
            // hold, never a crash.
            text += keys[rng.uniformInt(keys.size())];
            if (rng.uniformInt(8) != 0)
                text += " = ";
            text += values[rng.uniformInt(values.size())];
            if (rng.uniformInt(8) != 0)
                text += "\n";
        }
        mustParseOrThrowParseError(text);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanFuzz,
                         ::testing::Values(1, 7, 42, 1337, 90210));

// ---------------------------------------------------------------------
// Serve frame decoders.

/** A result store of every column type, standing in for a run's
 *  body. */
report::ResultStore
sampleStore()
{
    report::ResultStore store;
    auto &table = store.table(
        "cells", report::Schema{{"name", report::Type::String},
                                {"wall", report::Type::Double},
                                {"delta", report::Type::Int},
                                {"count", report::Type::Uint},
                                {"ok", report::Type::Bool}});
    table.addRow({report::Value::str("lusearch"),
                  report::Value::dbl(0.125),
                  report::Value::integer(-3),
                  report::Value::uinteger(7),
                  report::Value::boolean(true)});
    table.addRow({report::Value::str("h2 big"),
                  report::Value::dbl(1e300),
                  report::Value::integer(0),
                  report::Value::uinteger(0),
                  report::Value::boolean(false)});
    return store;
}

serve::Request
runRequest(const std::string &experiment, std::uint64_t stream)
{
    serve::Request request;
    request.kind = serve::RequestKind::Run;
    request.experiment = experiment;
    request.args = {"--invocations", "2", "--gc", "g1"};
    request.deadline_ms = 250.0;
    request.stream = stream;
    request.sequence = 3;
    request.attempt = 1;
    return request;
}

/** The three seed encodings: a BATCH request of two run cells, a
 *  BATCH response (one Ok part with a store body, one error part)
 *  and a health body whose metrics table carries live hot rows. */
std::string
batchRequestBytes()
{
    serve::Request batch;
    batch.kind = serve::RequestKind::Batch;
    batch.cells = {runRequest("fig01", 1), runRequest("fig02", 2)};
    batch.stream = 9;
    return serve::encodeRequest(batch);
}

std::string
batchResponseBytes()
{
    serve::Response ok;
    ok.status = serve::Status::Ok;
    ok.body = serve::encodeStore(sampleStore());
    serve::Response failed;
    failed.status = serve::Status::Error;
    failed.message = "bad arguments: --gc";
    serve::Response outer;
    outer.status = serve::Status::Ok;
    outer.body = serve::encodeBatchBody({ok, failed});
    return serve::encodeResponse(outer);
}

std::string
healthStoreBytes()
{
    trace::hot::setEnabled(true);
    trace::hot::count(trace::hot::SimEvents, 12345);
    trace::hot::observe(trace::hot::GcPauseNs, 3e5);
    trace::hot::setEnabled(false);
    serve::HealthSnapshot snapshot;
    snapshot.queue_capacity = 64;
    snapshot.completed = 5;
    snapshot.cache_hit_rate = 0.4;
    return serve::encodeStore(serve::healthStore(snapshot));
}

/** The contract under test: every decoder decodes or rejects with a
 *  message; a decoded response's body goes through the same batch
 *  and store decoders a client would apply. */
void
mustDecodeOrReject(const std::string &bytes)
{
    std::string error;
    serve::Request request;
    if (!serve::decodeRequest(bytes, request, error)) {
        EXPECT_FALSE(error.empty());
    }

    error.clear();
    report::ResultStore store;
    if (!serve::decodeStore(bytes, store, error)) {
        EXPECT_FALSE(error.empty());
    }

    error.clear();
    serve::Response response;
    if (!serve::decodeResponse(bytes, response, error)) {
        EXPECT_FALSE(error.empty());
        return;
    }
    std::vector<serve::Response> parts;
    if (!serve::decodeBatchBody(response.body, parts, error))
        return;
    for (const auto &part : parts) {
        report::ResultStore part_store;
        serve::decodeStore(part.body, part_store, error);
    }
}

TEST(FrameFuzzTest, SeedsDecode)
{
    std::string error;
    serve::Request request;
    ASSERT_TRUE(serve::decodeRequest(batchRequestBytes(), request,
                                     error))
        << error;
    EXPECT_EQ(request.cells.size(), 2u);

    serve::Response response;
    ASSERT_TRUE(serve::decodeResponse(batchResponseBytes(), response,
                                      error))
        << error;
    std::vector<serve::Response> parts;
    ASSERT_TRUE(serve::decodeBatchBody(response.body, parts, error))
        << error;
    ASSERT_EQ(parts.size(), 2u);
    report::ResultStore store;
    ASSERT_TRUE(serve::decodeStore(parts[0].body, store, error))
        << error;

    report::ResultStore health;
    ASSERT_TRUE(serve::decodeStore(healthStoreBytes(), health, error))
        << error;
    const auto *metrics = health.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->rowCount(),
              trace::hot::kCounterCount + trace::hot::kHistogramCount);
}

TEST(FrameFuzzTest, TruncationsNeverCrash)
{
    for (const std::string &base :
         {batchRequestBytes(), batchResponseBytes(),
          healthStoreBytes()}) {
        for (std::size_t cut = 0; cut <= base.size(); ++cut)
            mustDecodeOrReject(base.substr(0, cut));
    }
}

class FrameFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(FrameFuzz, RandomByteMutationsNeverCrash)
{
    support::Rng rng(GetParam());
    for (const std::string &base :
         {batchRequestBytes(), batchResponseBytes(),
          healthStoreBytes()}) {
        for (int round = 0; round < 400; ++round)
            mustDecodeOrReject(mutate(base, rng));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz,
                         ::testing::Values(1, 7, 42, 1337, 90210));

} // namespace
} // namespace capo
