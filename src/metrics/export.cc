#include "metrics/export.hh"

#include <fstream>
#include <functional>

#include "support/csv.hh"
#include "support/logging.hh"

namespace capo::metrics {

std::size_t
exportLatencyCsv(const LatencyRecorder &recorder, double window_ns,
                 std::ostream &out)
{
    support::CsvWriter csv(out);
    csv.header({"intended_ns", "start_ns", "end_ns", "intended_lat_ns",
                "simple_ns", "metered_ns"});

    const auto by_start = recorder.byStart();
    const auto metered = recorder.meteredLatencies(window_ns);
    for (std::size_t i = 0; i < by_start.size(); ++i) {
        csv.beginRow();
        csv.cell(by_start[i].intended);
        csv.cell(by_start[i].start);
        csv.cell(by_start[i].end);
        csv.cell(by_start[i].intendedLatency());
        csv.cell(by_start[i].latency());
        csv.cell(metered[i]);
        csv.endRow();
    }
    return csv.rows();
}

std::size_t
exportPercentileCsv(const std::vector<double> &latencies,
                    std::ostream &out)
{
    support::CsvWriter csv(out);
    csv.header({"percentile", "latency_ms"});
    for (const auto &[p, ns] : percentileCurve(latencies)) {
        csv.beginRow();
        csv.cell(p * 100.0);
        csv.cell(ns / 1e6);
        csv.endRow();
    }
    return csv.rows();
}

std::size_t
exportLboCsv(const LboAnalysis &analysis, std::ostream &out)
{
    support::CsvWriter csv(out);
    csv.header({"collector", "heap_factor", "wall_overhead",
                "cpu_overhead"});
    for (const auto &collector : analysis.collectors()) {
        for (double factor : analysis.factors(collector)) {
            const auto o = analysis.overhead(collector, factor);
            csv.beginRow();
            csv.cell(collector);
            csv.cell(factor);
            csv.cell(o.wall);
            csv.cell(o.cpu);
            csv.endRow();
        }
    }
    return csv.rows();
}

std::size_t
exportHeapTimelineCsv(const runtime::GcEventLog &log, std::ostream &out)
{
    support::CsvWriter csv(out);
    csv.header({"end_ns", "kind", "post_gc_bytes", "reclaimed_bytes",
                "traced_bytes"});
    for (const auto &cycle : log.cycles()) {
        csv.beginRow();
        csv.cell(cycle.end);
        csv.cell(std::string(runtime::phaseName(cycle.kind)));
        csv.cell(cycle.post_gc_bytes);
        csv.cell(cycle.reclaimed);
        csv.cell(cycle.traced);
        csv.endRow();
    }
    return csv.rows();
}

std::size_t
exportMetricsCsv(const trace::MetricsRegistry &registry,
                 std::ostream &out)
{
    support::CsvWriter csv(out);
    csv.header({"name", "kind", "count", "min", "mean", "max", "stddev",
                "last"});
    for (const auto &entry : registry.entries()) {
        const auto &h = entry.histogram;
        csv.beginRow();
        csv.cell(entry.name);
        csv.cell(std::string("histogram"));
        csv.cell(h.count());
        csv.cell(h.min());
        csv.cell(h.mean());
        csv.cell(h.max());
        csv.cell(h.stddev());
        csv.cell(h.last());
        csv.endRow();
    }
    return csv.rows();
}

void
writeCsvFile(const std::string &path,
             const std::function<void(std::ostream &)> &writer)
{
    std::ofstream out(path);
    if (!out)
        support::fatal("cannot open '", path, "' for writing");
    writer(out);
    if (!out)
        support::fatal("error while writing '", path, "'");
}

} // namespace capo::metrics
