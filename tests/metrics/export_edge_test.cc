/**
 * @file
 * Edge-case tests for the CSV tables (raw latency log, counter
 * summaries): empty inputs, single-event recorders, degenerate
 * smoothing windows, and golden header rows so a column rename can't
 * silently break downstream plotting scripts.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/latency.hh"
#include "trace/sampler.hh"
#include "trace/sink.hh"

namespace capo::metrics {
namespace {

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::stringstream stream(text);
    std::string line;
    while (std::getline(stream, line))
        lines.push_back(line);
    return lines;
}

TEST(LatencyExportEdgeTest, EmptyRecorderWritesHeaderOnly)
{
    LatencyRecorder recorder;
    std::stringstream out;
    EXPECT_EQ(latencyTable(recorder, 100e6).writeCsv(out), 0u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "intended_ns,start_ns,end_ns,intended_lat_ns,simple_ns,metered_ns");
}

TEST(LatencyExportEdgeTest, SingleEventRoundTrips)
{
    LatencyRecorder recorder;
    recorder.record(100.0, 350.0);
    std::stringstream out;
    EXPECT_EQ(latencyTable(recorder, 100e6).writeCsv(out), 1u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "100,100,350,250,250,250");
}

TEST(LatencyExportEdgeTest, ZeroWindowSelectsFullSmoothing)
{
    // window_ns = 0 must not divide by zero; it selects full smoothing.
    LatencyRecorder recorder;
    recorder.record(0.0, 10.0);
    recorder.record(100.0, 130.0);
    recorder.record(200.0, 260.0);
    std::stringstream out;
    EXPECT_EQ(latencyTable(recorder, 0.0).writeCsv(out), 3u);

    const auto full = recorder.meteredLatencies(0.0);
    ASSERT_EQ(full.size(), 3u);
    for (double latency : full)
        EXPECT_GE(latency, 0.0);
}

TEST(MetricsExportEdgeTest, EmptySinkWritesHeaderOnly)
{
    trace::TraceSink sink;
    std::stringstream out;
    EXPECT_EQ(trace::counterSummaryTable(sink).writeCsv(out), 0u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "name,count,min,mean,max,stddev");
}

TEST(MetricsExportEdgeTest, CounterRowsInFirstSampleOrder)
{
    trace::TraceSink sink;
    const auto track = sink.registerTrack("counters");
    sink.counter(track, trace::Category::Metrics, "pause", 0.0, 2.0);
    sink.counter(track, trace::Category::Metrics, "level", 0.0, 0.25);
    sink.counter(track, trace::Category::Metrics, "pause", 1.0, 4.0);

    std::stringstream out;
    EXPECT_EQ(trace::counterSummaryTable(sink).writeCsv(out), 2u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[1], "pause,2,2,3,4,1");
    EXPECT_EQ(lines[2], "level,1,0.25,0.25,0.25,0");
}

} // namespace
} // namespace capo::metrics
