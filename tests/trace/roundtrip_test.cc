/**
 * @file
 * Round-trip tests: export to the on-disk formats (Chrome trace-event
 * JSON, CSV) and re-parse, checking structural equality rather than
 * substrings. Covers the empty, single-event and >64k-event
 * shard-merge edge cases the exporters must survive.
 */

#include <gtest/gtest.h>

#include "testutil/json.hh"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "report/artifact.hh"
#include "report/table.hh"
#include "trace/chrome_export.hh"
#include "trace/sink.hh"

namespace capo::trace {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

JsonValue
exportAndParse(const TraceSink &sink, std::size_t *written = nullptr)
{
    std::stringstream out;
    const auto n = writeChromeTrace(sink, out);
    if (written != nullptr)
        *written = n;
    JsonValue root;
    JsonParser parser(out.str());
    EXPECT_TRUE(parser.parse(root)) << out.str().substr(0, 400);
    return root;
}

/** Non-metadata events of the parsed export. */
std::vector<JsonValue>
dataEvents(const JsonValue &root)
{
    std::vector<JsonValue> out;
    for (const auto &e : root.at("traceEvents").items) {
        if (e.at("ph").text != "M")
            out.push_back(e);
    }
    return out;
}

TEST(ChromeRoundTripTest, EmptySinkExportsValidEmptyJson)
{
    TraceSink sink;
    std::size_t written = 0;
    const auto root = exportAndParse(sink, &written);
    EXPECT_EQ(written, 0u);
    EXPECT_EQ(root.at("traceEvents").items.size(), 0u);

    // A registered-but-unwritten track exports only its metadata.
    TraceSink named;
    named.registerTrack("idle");
    const auto root2 = exportAndParse(named);
    EXPECT_TRUE(dataEvents(root2).empty());
}

TEST(ChromeRoundTripTest, SingleEventRoundTripsExactly)
{
    TraceSink sink;
    const auto track = sink.registerTrack("only");
    sink.instant(track, Category::Sim, "tick", 1500.0, 7.5);

    std::size_t written = 0;
    const auto root = exportAndParse(sink, &written);
    EXPECT_EQ(written, 1u);
    const auto events = dataEvents(root);
    ASSERT_EQ(events.size(), 1u);
    const auto &e = events[0];
    EXPECT_EQ(e.at("ph").text, "i");
    EXPECT_EQ(e.at("name").text, "tick");
    // ns -> us with fractional precision.
    EXPECT_DOUBLE_EQ(e.at("ts").number, 1.5);
    EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 7.5);
}

TEST(ChromeRoundTripTest, SpansSurviveQuotingAndNesting)
{
    TraceSink sink;
    const auto track = sink.registerTrack("q");
    const char *name = sink.internName("outer \"quoted\"\tname\\");
    sink.beginSpan(track, Category::Gc, name, 100.0);
    sink.beginSpan(track, Category::Gc, "inner", 200.0);
    sink.endSpan(track, Category::Gc, "inner", 300.0);
    sink.endSpan(track, Category::Gc, name, 400.0);

    const auto root = exportAndParse(sink);
    const auto events = dataEvents(root);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].at("name").text, "outer \"quoted\"\tname\\");
    EXPECT_EQ(events[0].at("ph").text, "B");
    EXPECT_EQ(events[1].at("name").text, "inner");
    EXPECT_EQ(events[3].at("ph").text, "E");
    // Nesting: B B E E in timestamp order.
    double last = -1.0;
    for (const auto &e : events) {
        EXPECT_GE(e.at("ts").number, last);
        last = e.at("ts").number;
    }
}

TEST(ChromeRoundTripTest, LargeShardMergeRoundTrips)
{
    // >64k events arriving through the shard-merge path (the parallel
    // sweep's route into the main sink), then through the exporter.
    constexpr std::size_t kEvents = 70000;
    TraceSink::Options options;
    options.track_capacity = 1u << 17;  // no ring wrap at this size
    TraceSink main(options);

    TraceSink shard(main.shardOptions());
    const auto track = shard.registerTrack("bulk");
    for (std::size_t i = 0; i < kEvents; ++i) {
        shard.counter(track, Category::Metrics, "n",
                      static_cast<double>(i) * 10.0,
                      static_cast<double>(i));
    }
    main.merge(shard, 5000.0);
    ASSERT_EQ(main.eventCount(), kEvents);
    EXPECT_EQ(main.droppedEvents(), 0u);

    std::size_t written = 0;
    const auto root = exportAndParse(main, &written);
    EXPECT_EQ(written, kEvents);
    const auto events = dataEvents(root);
    ASSERT_EQ(events.size(), kEvents);
    // Spot-check exact values and the merge offset (5000 ns = 5 us)
    // at the ends and a few interior points.
    for (std::size_t i : {std::size_t{0}, std::size_t{1},
                          kEvents / 2, kEvents - 1}) {
        const auto &e = events[i];
        EXPECT_EQ(e.at("ph").text, "C");
        EXPECT_DOUBLE_EQ(e.at("ts").number,
                         (static_cast<double>(i) * 10.0 + 5000.0) /
                             1000.0);
        EXPECT_DOUBLE_EQ(e.at("args").at("value").number,
                         static_cast<double>(i));
    }
}

TEST(ChromeRoundTripTest, ArtifactSinkExportMatchesDirectExport)
{
    TraceSink sink;
    const auto track = sink.registerTrack("t");
    sink.beginSpan(track, Category::Gc, "pause", 100.0);
    sink.endSpan(track, Category::Gc, "pause", 900.0);
    sink.instant(track, Category::Sim, "safepoint", 500.0, 1.0);

    std::stringstream direct;
    writeChromeTrace(sink, direct);

    report::ArtifactSink artifacts(
        ".", report::ArtifactSink::Mode::Memory);
    ASSERT_TRUE(writeChromeTraceArtifact(sink, artifacts,
                                         "trace.json"));
    EXPECT_EQ(artifacts.payload("trace.json"), direct.str());
}

TEST(ChromeRoundTripTest, ArtifactSinkExportQuarantinesUnderFaults)
{
    TraceSink sink;
    const auto track = sink.registerTrack("t");
    sink.instant(track, Category::Sim, "tick", 1.0, 1.0);

    report::ArtifactSink artifacts(
        ".", report::ArtifactSink::Mode::Memory);
    fault::FaultPlan plan;
    plan.setRate(fault::Site::ArtifactIo, 1.0);
    artifacts.armFaults(plan, 7);
    artifacts.setRetries(1);
    EXPECT_FALSE(writeChromeTraceArtifact(sink, artifacts,
                                          "trace.json"));
    EXPECT_EQ(artifacts.quarantined().size(), 1u);
}

} // namespace
} // namespace capo::trace

// ---------------------------------------------------------------------
// CSV round-trip.

namespace capo::report {
namespace {

/** RFC-4180 reader matching ResultTable::writeCsv's quoting; just
 *  enough for the round-trip checks. */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cell += c;
            }
        } else if (c == '"' && cell.empty()) {
            quoted = true;
        } else if (c == ',') {
            row.push_back(std::move(cell));
            cell.clear();
        } else if (c == '\n') {
            row.push_back(std::move(cell));
            cell.clear();
            rows.push_back(std::move(row));
            row.clear();
        } else {
            cell += c;
        }
    }
    EXPECT_TRUE(cell.empty() && row.empty()) << "unterminated row";
    return rows;
}

TEST(CsvRoundTripTest, QuotingRoundTripsHostileStrings)
{
    const std::vector<std::string> hostile = {
        "plain",       "comma, inside", "\"quoted\"",
        "multi\nline", "trailing,",     "\"\"",
        "",            "cr\rlf",
    };
    ResultTable table(Schema{{"a", Type::String}, {"b", Type::String}});
    for (std::size_t i = 0; i + 1 < hostile.size(); i += 2)
        table.addRow({Value::str(hostile[i]), Value::str(hostile[i + 1])});
    std::stringstream out;
    EXPECT_EQ(table.writeCsv(out), hostile.size() / 2);

    const auto rows = parseCsv(out.str());
    ASSERT_EQ(rows.size(), 1 + hostile.size() / 2);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
    for (std::size_t i = 0; i + 1 < hostile.size(); i += 2) {
        const auto &row = rows[1 + i / 2];
        ASSERT_EQ(row.size(), 2u);
        EXPECT_EQ(row[0], hostile[i]);
        EXPECT_EQ(row[1], hostile[i + 1]);
    }
}

TEST(CsvRoundTripTest, NumbersRoundTripExactly)
{
    // Doubles print with 17 significant digits, so every re-parsed
    // value has the original's bits.
    const std::vector<double> values = {
        0.0,     1.0,          -1.5,          3.141592653589793,
        2.5e-17, 6.02214076e23, 123456789.25, -9.999999999e9,
        0.1,     1.0 / 3.0,
    };
    ResultTable table(Schema{
        {"v", Type::Double}, {"i", Type::Int}, {"u", Type::Uint}});
    for (double v : values) {
        table.addRow({Value::dbl(v), Value::integer(-42),
                      Value::uinteger(std::uint64_t{1} << 63)});
    }
    std::stringstream out;
    table.writeCsv(out);
    const auto rows = parseCsv(out.str());
    ASSERT_EQ(rows.size(), 1 + values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        const auto &row = rows[1 + i];
        ASSERT_EQ(row.size(), 3u);
        EXPECT_EQ(std::stod(row[0]), values[i]) << row[0];
        EXPECT_EQ(row[1], "-42");
        EXPECT_EQ(row[2], "9223372036854775808");
    }
}

TEST(CsvRoundTripTest, EmptyAndHeaderOnlyOutputs)
{
    std::stringstream out;
    EXPECT_EQ(ResultTable(Schema{{"only", Type::String}}).writeCsv(out),
              0u);
    const auto rows = parseCsv(out.str());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"only"}));
}

} // namespace
} // namespace capo::report
