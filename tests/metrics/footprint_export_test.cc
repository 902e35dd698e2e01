/**
 * @file
 * Tests for the footprint extension metric and the CSV tables of the
 * raw latency log and the LBO analysis.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "metrics/footprint.hh"
#include "metrics/latency.hh"
#include "metrics/lbo.hh"

namespace capo::metrics {
namespace {

runtime::GcEventLog
sawtoothLog()
{
    // Collections at t = 1s, 2s, 3s: heap climbs from a 100-byte
    // floor to 300 bytes before each collection.
    runtime::GcEventLog log;
    for (int i = 1; i <= 3; ++i) {
        runtime::CycleRecord cycle;
        cycle.begin = i * 1e9 - 1e6;
        cycle.end = i * 1e9;
        cycle.kind = runtime::GcPhase::YoungPause;
        cycle.post_gc_bytes = 100.0;
        cycle.reclaimed = 200.0;
        cycle.traced = 50.0;
        log.recordCycle(cycle);
    }
    return log;
}

TEST(FootprintTest, SawtoothAveragesToMidpoint)
{
    const auto log = sawtoothLog();
    const auto summary = integrateFootprint(log, 0.0, 3e9);
    EXPECT_EQ(summary.samples, 3u);
    EXPECT_DOUBLE_EQ(summary.peak_bytes, 300.0);
    EXPECT_DOUBLE_EQ(summary.trough_bytes, 100.0);
    // Every trapezoid spans floor 100 -> pre 300: average 200.
    EXPECT_NEAR(summary.average_bytes, 200.0, 1.0);
    EXPECT_NEAR(summary.byte_seconds, 200.0 * 3.0, 5.0);
    EXPECT_DOUBLE_EQ(summary.span_seconds, 3.0);
}

TEST(FootprintTest, EmptyLogYieldsZero)
{
    runtime::GcEventLog log;
    const auto summary = integrateFootprint(log, 0.0, 1e9);
    EXPECT_EQ(summary.samples, 0u);
    EXPECT_DOUBLE_EQ(summary.byte_seconds, 0.0);
}

TEST(FootprintTest, WindowClipsSamples)
{
    const auto log = sawtoothLog();
    const auto summary = integrateFootprint(log, 1.5e9, 2.5e9);
    EXPECT_EQ(summary.samples, 1u);  // only the t=2s collection
}

TEST(ExportTest, LatencyCsvHasOneRowPerEvent)
{
    LatencyRecorder rec;
    rec.record(0.0, 10.0);
    rec.record(20.0, 35.0);
    std::ostringstream out;
    const auto rows = latencyTable(rec, 0.0).writeCsv(out);
    EXPECT_EQ(rows, 2u);
    const std::string text = out.str();
    EXPECT_NE(text.find("intended_ns,start_ns,end_ns,intended_lat_ns,simple_ns,metered_ns"),
              std::string::npos);
    EXPECT_NE(text.find("20,20,35,15,15"), std::string::npos);
}

TEST(ExportTest, LboCsvListsEveryConfiguration)
{
    LboAnalysis lbo;
    lbo.add("Serial", 2.0, RunCost{100.0, 200.0, 10.0, 10.0});
    lbo.add("Serial", 4.0, RunCost{90.0, 180.0, 5.0, 5.0});
    lbo.add("G1", 2.0, RunCost{95.0, 250.0, 8.0, 30.0});
    std::ostringstream out;
    EXPECT_EQ(lboTable(lbo).writeCsv(out), 3u);
    EXPECT_NE(out.str().find("Serial,2"), std::string::npos);
    EXPECT_NE(out.str().find("G1,2"), std::string::npos);
}

} // namespace
} // namespace capo::metrics
