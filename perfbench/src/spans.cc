#include "spans.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

double
monoNow()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
cpuNow()
{
    rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::string
SpanRecorder::Span::layer() const
{
    return name.substr(0, name.find('.'));
}

SpanRecorder::SpanRecorder(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), run_(run_id), origin_(monoNow())
{
}

int
SpanRecorder::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.run = run_;
    span.cpu_start = cpuNow();
    span.start = monoNow() - origin_;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
SpanRecorder::end(int index)
{
    if (!enabled_ || index < 0)
        return;
    auto &span = spans_[static_cast<std::size_t>(index)];
    span.end = monoNow() - origin_;
    span.cpu_end = cpuNow();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto &span : spans_) {
        if (span.parent >= 0) {
            children[static_cast<std::size_t>(span.parent)]
                .emplace_back(span.start, span.end);
        }
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        double covered = 0.0;
        double reach = spans_[i].start;
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, spans_[i].end);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = std::max(0.0, spans_[i].seconds() - covered);
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::layerSelfTimes() const
{
    const auto self = selfTimes();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].layer()] += self[i];
    return out;
}

namespace {

template <typename Match>
SpanRecorder::NameTotals
sumSpans(const std::vector<SpanRecorder::Span> &spans, Match match)
{
    SpanRecorder::NameTotals out;
    for (const auto &span : spans) {
        if (!match(span))
            continue;
        ++out.count;
        out.seconds += span.seconds();
        out.cpu_seconds += span.cpuSeconds();
        out.durations.push_back(span.seconds());
    }
    return out;
}

} // namespace

SpanRecorder::NameTotals
SpanRecorder::totals(const std::string &name) const
{
    return sumSpans(spans_, [&](const Span &s) { return s.name == name; });
}

SpanRecorder::NameTotals
SpanRecorder::layerTotals(const std::string &layer) const
{
    return sumSpans(spans_,
                    [&](const Span &s) { return s.layer() == layer; });
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"perfbench\"}}";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &span = spans_[i];
        std::snprintf(buf, sizeof buf,
                      ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                      "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%llu,"
                      "\"cpu_s\":%.6f}}",
                      span.name.c_str(), span.layer().c_str(),
                      span.start * 1e6, span.seconds() * 1e6, i,
                      span.parent,
                      static_cast<unsigned long long>(span.run),
                      span.cpuSeconds());
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

bool
SpanRecorder::writeSelfTimeTable(const std::string &path,
                                 double wall_s) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto self = layerSelfTimes();
    std::map<std::string, std::size_t> counts;
    for (const auto &span : spans_)
        ++counts[span.layer()];
    out << "layer\tspans\tself_s\tshare_of_wall\n";
    char buf[256];
    for (const auto &[layer, seconds] : self) {
        std::snprintf(buf, sizeof buf, "%s\t%zu\t%.6f\t%.4f\n",
                      layer.c_str(), counts[layer], seconds,
                      wall_s > 0.0 ? seconds / wall_s : 0.0);
        out << buf;
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
