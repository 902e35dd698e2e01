/**
 * @file
 * Chrome trace-event JSON export.
 *
 * Serializes a TraceSink into the Trace Event Format understood by
 * Perfetto (ui.perfetto.dev) and chrome://tracing: one named thread
 * per track, B/E duration events for spans, instant events, and "C"
 * counter events that render as counter tracks. Timestamps are
 * microseconds with nanosecond fractional precision, emitted in
 * non-decreasing order.
 */

#ifndef CAPO_TRACE_CHROME_EXPORT_HH
#define CAPO_TRACE_CHROME_EXPORT_HH

#include <ostream>
#include <string>

#include "trace/sink.hh"

namespace capo::report {
class ArtifactSink;
}

namespace capo::trace {

/**
 * Write the whole sink as Chrome trace-event JSON.
 * @return Number of trace events written (excluding metadata).
 */
std::size_t writeChromeTrace(const TraceSink &sink, std::ostream &out);

/**
 * Write the trace as one artifact through @p artifacts — the same
 * choke point every CSV/JSON artifact uses, so trace export inherits
 * buffered-whole writes, retry, quarantine and artifact_io fault
 * injection. Warns if the sink dropped events (ring capacity
 * exceeded). Returns false when the artifact was quarantined.
 */
bool writeChromeTraceArtifact(const TraceSink &sink,
                              report::ArtifactSink &artifacts,
                              const std::string &path);

} // namespace capo::trace

#endif // CAPO_TRACE_CHROME_EXPORT_HH
