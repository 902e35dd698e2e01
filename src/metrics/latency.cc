#include "metrics/latency.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "metrics/summary.hh"
#include "support/logging.hh"

namespace capo::metrics {

void
LatencyRecorder::record(double start, double end)
{
    CAPO_ASSERT(end >= start, "event ends before it starts");
    events_.push_back(LatencyEvent{start, end, start});
}

void
LatencyRecorder::record(double intended, double start, double end)
{
    CAPO_ASSERT(intended <= start, "event intended after service start");
    CAPO_ASSERT(end >= start, "event ends before it starts");
    events_.push_back(LatencyEvent{start, end, intended});
}

void
LatencyRecorder::reserve(std::size_t n)
{
    events_.reserve(n);
}

std::vector<double>
LatencyRecorder::simpleLatencies() const
{
    std::vector<double> out;
    out.reserve(events_.size());
    for (const auto &e : events_)
        out.push_back(e.latency());
    return out;
}

std::vector<double>
LatencyRecorder::intendedLatencies() const
{
    std::vector<double> out;
    out.reserve(events_.size());
    for (const auto &e : events_)
        out.push_back(e.intendedLatency());
    return out;
}

double
LatencyRecorder::spanBegin() const
{
    double t = 0.0;
    bool first = true;
    for (const auto &e : events_) {
        if (first || e.start < t) {
            t = e.start;
            first = false;
        }
    }
    return t;
}

double
LatencyRecorder::spanEnd() const
{
    double t = 0.0;
    bool first = true;
    for (const auto &e : events_) {
        if (first || e.end > t) {
            t = e.end;
            first = false;
        }
    }
    return t;
}

namespace {

/**
 * Indices of @p events in start order, ties in record order: a
 * bottom-up merge of the maximal start-ordered runs, adjacent runs
 * pairwise per pass. A closed-loop recorder is one run per lane, so
 * this takes log2(lanes) linear passes. Indices rather than events keep
 * the passes' memory at a sixth.
 */
std::vector<std::uint32_t>
startOrder(const std::vector<LatencyEvent> &events)
{
    const std::size_t n = events.size();
    CAPO_ASSERT(n <= std::numeric_limits<std::uint32_t>::max(),
                "too many events to order");
    std::vector<std::size_t> runs = {0};
    for (std::size_t i = 1; i < n; ++i) {
        if (events[i].start < events[i - 1].start)
            runs.push_back(i);
    }
    runs.push_back(n);

    // std::merge takes the left run first on equal starts: stable.
    const auto earlier = [&events](std::uint32_t a, std::uint32_t b) {
        return events[a].start < events[b].start;
    };
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::vector<std::uint32_t> scratch(runs.size() > 2 ? n : 0);
    while (runs.size() > 2) {
        std::vector<std::size_t> next = {0};
        for (std::size_t r = 0; r + 1 < runs.size(); r += 2) {
            const std::size_t mid = runs[r + 1];
            const std::size_t hi = r + 2 < runs.size() ? runs[r + 2] : mid;
            const std::uint32_t *in = order.data();
            std::merge(in + runs[r], in + mid, in + mid, in + hi,
                       scratch.data() + runs[r], earlier);
            next.push_back(hi);
        }
        order.swap(scratch);
        runs.swap(next);
    }
    return order;
}

/**
 * Sweep the window-smoothed cumulative arrival function R(t) over the
 * ascending @p starts, calling @p visit(t, R(t)) at each of its points
 * in ascending t: (t0, 0), one per interval edge, then (t1, R(t1)).
 *
 * Each start s contributes density 1/W over [s - W/2, s + W/2]
 * clipped to [t0, t1], with the overflow past either end reflected
 * back inside (standard density boundary correction), so R(t1) = n
 * exactly and edge events are not biased early or late; without it the
 * last events of a run would inherit a spurious ~W/8 queueing delay.
 * R is piecewise linear and its slope changes by +-1/W at every
 * interval edge. Over ascending starts each of the six edge families
 * (inner lo/hi, left-reflection lo/hi, right-reflection lo/hi) is
 * monotone, so merging the six streams yields the edges in order
 * without materializing them.
 */
template <class Visit>
void
sweepArrivals(const std::vector<double> &starts, double window,
              Visit &&visit)
{
    // Rising families (interval starts, +1/W) first, then falling.
    enum { kInnerLo, kLeftLo, kRightLo, kInnerHi, kLeftHi, kRightHi,
           kFamilies };
    constexpr double kNone = std::numeric_limits<double>::infinity();
    const auto n = static_cast<std::ptrdiff_t>(starts.size());
    const double *s = starts.data();
    const double t0 = starts.front();
    const double t1 = starts.back();
    const double half = window / 2.0;
    const double unit = 1.0 / window;

    // The left reflection covers the starts whose window overflows t0
    // (a prefix); the right one those overflowing t1 (a suffix). The
    // reflected far edges descend as the starts ascend, so those two
    // families walk the starts backwards.
    std::ptrdiff_t left = 0;
    while (left < n && s[left] - half < t0)
        ++left;
    std::ptrdiff_t right = n;
    while (right > 0 && s[right - 1] + half > t1)
        --right;
    struct Family {
        std::ptrdiff_t i, end, step;
    };
    Family family[kFamilies] = {
        {0, n, 1},     {0, left, 1},       {n - 1, right - 1, -1},
        {0, n, 1},     {left - 1, -1, -1}, {right, n, 1},
    };
    double head[kFamilies];

    // Load family k's next edge, skipping empty intervals; an
    // exhausted family reads kNone.
    const auto settle = [&](int k) {
        Family &f = family[k];
        for (; f.i != f.end; f.i += f.step) {
            const double a = s[f.i] - half;
            const double b = s[f.i] + half;
            double lo, hi;
            if (k == kInnerLo || k == kInnerHi) {
                lo = std::max(a, t0);
                hi = std::min(b, t1);
            } else if (k == kLeftLo || k == kLeftHi) {
                lo = t0;
                hi = t0 + (t0 - a);
            } else {
                lo = t1 - (b - t1);
                hi = t1;
            }
            if (hi > lo) {
                head[k] = k < kInnerHi ? lo : hi;
                return;
            }
        }
        head[k] = kNone;
    };
    for (int k = 0; k < kFamilies; ++k)
        settle(k);
    const auto lowest = [&](int a, int b, int c) {
        int k = a;
        if (head[b] < head[k])
            k = b;
        if (head[c] < head[k])
            k = c;
        return k;
    };

    double r = 0.0;
    double slope = 0.0;
    double prev = t0;
    visit(t0, r);
    for (;;) {
        // The lowest edge next; on a tie the rising one. Ties within a
        // direction need no rule: each adds the same +-1/W to the slope.
        const int up = lowest(kInnerLo, kLeftLo, kRightLo);
        const int down = lowest(kInnerHi, kLeftHi, kRightHi);
        const bool rising = head[up] <= head[down];
        const int k = rising ? up : down;
        const double edge = head[k];
        if (edge == kNone)
            break;
        r += slope * (edge - prev);
        slope += rising ? unit : -unit;
        prev = edge;
        visit(edge, r);
        family[k].i += family[k].step;
        settle(k);
    }
    r += slope * (t1 - prev);
    visit(t1, r);
}

/** Synthetic starts over ascending @p starts; see syntheticStarts(). */
std::vector<double>
smoothedStarts(const std::vector<double> &starts, double window_ns)
{
    const std::size_t n = starts.size();
    if (n == 0)
        return {};

    const double t0 = starts.front();
    const double t1 = starts.back();
    const double span = t1 - t0;
    if (span <= 0.0)
        return starts;  // all simultaneous: nothing to smooth

    // A (positive) window below the span's floating-point resolution
    // smooths nothing; short-circuit to the identity rather than
    // sweeping ramps whose widths are dominated by rounding error.
    // (window_ns <= 0 selects full smoothing below.)
    if (window_ns > 0.0 && window_ns < span * 1e-9)
        return starts;

    // Full smoothing: uniform arrivals over the span. The grid is
    // endpoint-inclusive so that already-uniform arrivals map onto
    // themselves (metered == simple for a perfectly steady run).
    std::vector<double> synth(n);
    if (window_ns <= 0.0 || window_ns >= 2.0 * span) {
        for (std::size_t i = 0; i < n; ++i) {
            synth[i] = t0 + (static_cast<double>(i) + 0.5) /
                                static_cast<double>(n) * span;
        }
        return synth;
    }

    // First sweep: the total smoothed mass R(t1).
    double total = 0.0;
    sweepArrivals(starts, window_ns, [&](double, double r) { total = r; });
    CAPO_ASSERT(total > 0.0, "smoothed arrival mass vanished");

    // Second sweep: invert R at the normalized ranks, which ascend.
    // Midpoint ranks: an event sits at the centre of its own smoothed
    // arrival mass, so the identity (tiny-window) limit is exact and
    // residual error is bounded by a quarter of the mean inter-arrival
    // gap. Each rank interpolates on the first segment of R whose upper
    // end reaches it; ranks past R(t1) by rounding map to t1.
    const auto rank = [&](std::size_t i) {
        return (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
               total;
    };
    std::size_t i = 0;
    double target = rank(0);
    double t_lo = t0;
    double r_lo = 0.0;
    sweepArrivals(starts, window_ns, [&](double t_hi, double r_hi) {
        while (i < n && r_hi >= target) {
            synth[i] = r_hi > r_lo
                ? t_lo + (target - r_lo) / (r_hi - r_lo) * (t_hi - t_lo)
                : t_hi;
            target = rank(++i);
        }
        t_lo = t_hi;
        r_lo = r_hi;
    });
    for (; i < n; ++i)
        synth[i] = t1;
    return synth;
}

/** The starts of @p events at @p order. */
std::vector<double>
startsAt(const std::vector<LatencyEvent> &events,
         const std::vector<std::uint32_t> &order)
{
    std::vector<double> starts;
    starts.reserve(order.size());
    for (std::uint32_t i : order)
        starts.push_back(events[i].start);
    return starts;
}

} // namespace

std::vector<LatencyEvent>
LatencyRecorder::byStart() const
{
    std::vector<LatencyEvent> out;
    out.reserve(events_.size());
    for (std::uint32_t i : startOrder(events_))
        out.push_back(events_[i]);
    return out;
}

std::vector<double>
LatencyRecorder::syntheticStarts(double window_ns) const
{
    return smoothedStarts(startsAt(events_, startOrder(events_)),
                          window_ns);
}

std::vector<double>
LatencyRecorder::meteredLatencies(double window_ns) const
{
    // Pair the i-th event in start order with the i-th synthetic start.
    const auto order = startOrder(events_);
    const auto starts = startsAt(events_, order);
    auto out = smoothedStarts(starts, window_ns);
    for (std::size_t i = 0; i < order.size(); ++i)
        out[i] = events_[order[i]].end - std::min(starts[i], out[i]);
    return out;
}

report::ResultTable
latencyTable(const LatencyRecorder &recorder, double window_ns)
{
    report::ResultTable table(
        report::Schema{{"intended_ns", report::Type::Double},
                       {"start_ns", report::Type::Double},
                       {"end_ns", report::Type::Double},
                       {"intended_lat_ns", report::Type::Double},
                       {"simple_ns", report::Type::Double},
                       {"metered_ns", report::Type::Double}});
    const auto by_start = recorder.byStart();
    const auto metered = recorder.meteredLatencies(window_ns);
    for (std::size_t i = 0; i < by_start.size(); ++i) {
        const auto &event = by_start[i];
        table.addRow({report::Value::dbl(event.intended),
                      report::Value::dbl(event.start),
                      report::Value::dbl(event.end),
                      report::Value::dbl(event.intendedLatency()),
                      report::Value::dbl(event.latency()),
                      report::Value::dbl(metered[i])});
    }
    return table;
}

const std::vector<double> &
paperPercentiles()
{
    static const std::vector<double> points = {
        0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999,
    };
    return points;
}

std::vector<std::pair<double, double>>
percentileCurve(std::vector<double> latencies)
{
    std::vector<std::pair<double, double>> curve;
    if (latencies.empty())
        return curve;
    const auto &points = paperPercentiles();
    const auto values = quantiles(std::move(latencies), points);
    for (std::size_t i = 0; i < points.size(); ++i)
        curve.emplace_back(points[i], values[i]);
    return curve;
}

} // namespace capo::metrics
