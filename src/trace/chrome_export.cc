#include "trace/chrome_export.hh"

#include <algorithm>
#include <cstdio>

#include "report/artifact.hh"
#include "support/logging.hh"

namespace capo::trace {

namespace {

/** Escape a name for inclusion in a JSON string literal. */
std::string
jsonEscape(const char *text)
{
    std::string out;
    for (const char *p = text; *p; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Format a number without trailing-zero noise but full precision. */
std::string
jsonNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

struct Merged {
    TraceEvent event;
    TrackId track;
};

} // namespace

std::size_t
writeChromeTrace(const TraceSink &sink, std::ostream &out)
{
    std::vector<Merged> merged;
    merged.reserve(sink.eventCount());
    for (TrackId t = 0; t < sink.trackCount(); ++t) {
        for (const auto &event : sink.events(t))
            merged.push_back(Merged{event, t});
    }
    // Stable sort keeps each track's emission order for equal stamps,
    // which preserves begin/end pairing at zero-length boundaries.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Merged &a, const Merged &b) {
                         return a.event.ts < b.event.ts;
                     });

    out << "{\"traceEvents\":[";
    bool first = true;
    const auto comma = [&] {
        if (!first)
            out << ",\n";
        else
            out << "\n";
        first = false;
    };

    for (TrackId t = 0; t < sink.trackCount(); ++t) {
        comma();
        out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t + 1
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << jsonEscape(sink.trackName(t).c_str()) << "\"}}";
    }

    std::size_t written = 0;
    for (const auto &m : merged) {
        const auto &e = m.event;
        const std::string ts = jsonNumber(e.ts / 1000.0);  // ns -> us
        const std::string name = jsonEscape(e.name);
        const char *cat = categoryName(e.cat);
        const TrackId tid = m.track + 1;
        comma();
        switch (e.kind) {
          case EventKind::SpanBegin:
            out << "{\"ph\":\"B\",\"pid\":1,\"tid\":" << tid
                << ",\"ts\":" << ts << ",\"name\":\"" << name
                << "\",\"cat\":\"" << cat << "\"}";
            break;
          case EventKind::SpanEnd:
            out << "{\"ph\":\"E\",\"pid\":1,\"tid\":" << tid
                << ",\"ts\":" << ts << ",\"name\":\"" << name
                << "\",\"cat\":\"" << cat << "\"}";
            break;
          case EventKind::Instant:
            out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid
                << ",\"ts\":" << ts << ",\"name\":\"" << name
                << "\",\"cat\":\"" << cat
                << "\",\"s\":\"t\",\"args\":{\"value\":"
                << jsonNumber(e.value) << "}}";
            break;
          case EventKind::Counter:
            out << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << tid
                << ",\"ts\":" << ts << ",\"name\":\"" << name
                << "\",\"cat\":\"" << cat << "\",\"args\":{\"value\":"
                << jsonNumber(e.value) << "}}";
            break;
        }
        ++written;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return written;
}

bool
writeChromeTraceArtifact(const TraceSink &sink,
                         report::ArtifactSink &artifacts,
                         const std::string &path)
{
    if (sink.droppedEvents() > 0) {
        support::warn("trace dropped ", sink.droppedEvents(),
                      " events (raise TraceSink::Options::track_capacity"
                      " or narrow --trace-categories)");
    }
    // The sink quarantines (and warns) on failure; nothing here is
    // fatal — a missing trace must never kill the run it observed.
    return artifacts.write(path, [&](std::ostream &out) {
        writeChromeTrace(sink, out);
    });
}

} // namespace capo::trace
