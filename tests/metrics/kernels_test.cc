/**
 * @file
 * Differential tests for the linear-time metrics kernels: each kernel
 * is checked bit for bit against the straightforward construction it
 * replaced, kept here as the oracle.
 *
 * - Mmu::at (two forward-only indices per candidate family) against
 *   two binary searches per candidate window.
 * - quantiles()/percentileCurve() (selection) against a full sort and
 *   quantileSorted().
 * - syntheticStarts() (six merged edge streams, two sweeps) against
 *   materializing, sorting and tabulating every breakpoint.
 * - byStart() against a stable sort by start.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "metrics/latency.hh"
#include "metrics/mmu.hh"
#include "metrics/summary.hh"
#include "support/rng.hh"

namespace capo::metrics {
namespace {

using Pauses = std::vector<std::pair<double, double>>;

/** Bit-level equality, so 0.0 vs -0.0 and rounding both show. */
void
expectSameBits(const std::vector<double> &expected,
               const std::vector<double> &actual, const char *what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
                  std::bit_cast<std::uint64_t>(actual[i]))
            << what << " [" << i << "]: " << expected[i] << " vs "
            << actual[i];
    }
}

// ---------------------------------------------------------------------
// MMU.
// ---------------------------------------------------------------------

/** MMU by binary search per candidate window (the replaced kernel). */
class OracleMmu
{
  public:
    OracleMmu(Pauses pauses, double run_begin, double run_end)
        : begin_(run_begin), end_(run_end)
    {
        Pauses clipped;
        for (auto [b, e] : pauses) {
            b = std::max(b, run_begin);
            e = std::min(e, run_end);
            if (e > b)
                clipped.emplace_back(b, e);
        }
        std::sort(clipped.begin(), clipped.end());
        for (const auto &p : clipped) {
            if (!pauses_.empty() && p.first <= pauses_.back().second) {
                pauses_.back().second =
                    std::max(pauses_.back().second, p.second);
            } else {
                pauses_.push_back(p);
            }
        }
        prefix_.resize(pauses_.size() + 1, 0.0);
        for (std::size_t i = 0; i < pauses_.size(); ++i)
            prefix_[i + 1] =
                prefix_[i] + (pauses_[i].second - pauses_[i].first);
    }

    double at(double window_ns) const
    {
        const double span = end_ - begin_;
        if (span <= 0.0)
            return 1.0;
        const double w = std::min(window_ns, span);
        double worst_pause = 0.0;
        for (const auto &p : pauses_) {
            const double from_begin = std::clamp(p.first, begin_, end_ - w);
            worst_pause = std::max(worst_pause, pauseIn(from_begin, w));
            const double from_end =
                std::clamp(p.second - w, begin_, end_ - w);
            worst_pause = std::max(worst_pause, pauseIn(from_end, w));
        }
        return std::max(0.0, (w - worst_pause) / w);
    }

  private:
    double pauseIn(double t, double w) const
    {
        const double lo = t;
        const double hi = t + w;
        auto first = std::lower_bound(
            pauses_.begin(), pauses_.end(), lo,
            [](const auto &p, double v) { return p.second <= v; });
        auto last = std::lower_bound(
            pauses_.begin(), pauses_.end(), hi,
            [](const auto &p, double v) { return p.first < v; });
        if (first >= last)
            return 0.0;
        const std::size_t i0 = first - pauses_.begin();
        const std::size_t i1 = last - pauses_.begin();
        double total = prefix_[i1] - prefix_[i0];
        total -= std::max(0.0, lo - pauses_[i0].first);
        total -= std::max(0.0, pauses_[i1 - 1].second - hi);
        return std::max(0.0, total);
    }

    Pauses pauses_;
    std::vector<double> prefix_;
    double begin_ = 0.0;
    double end_ = 0.0;
};

/** Windows from far below the mean gap to beyond the span. */
std::vector<double>
mmuWindows(double span)
{
    std::vector<double> windows;
    for (double w = span * 1e-4; w < span; w *= 1.37)
        windows.push_back(w);
    windows.push_back(span);
    windows.push_back(span * 1.5);
    windows.push_back(span * 100.0);
    return windows;
}

void
expectMmuMatchesOracle(const Pauses &pauses, double begin, double end)
{
    const Mmu mmu(pauses, begin, end);
    const OracleMmu oracle(pauses, begin, end);
    std::vector<double> expected, actual;
    for (double w : mmuWindows(end - begin)) {
        expected.push_back(oracle.at(w));
        actual.push_back(mmu.at(w));
    }
    expectSameBits(expected, actual, "MMU ladder");
}

TEST(MmuKernelTest, RandomTrainsMatchBinarySearch)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        support::Rng rng(seed);
        Pauses pauses;
        double t = rng.uniform(0.0, 50.0);
        const int count = 1 + static_cast<int>(rng.uniformInt(300));
        for (int i = 0; i < count; ++i) {
            const double len = rng.exponential(5.0);
            const double roll = rng.uniform();
            double begin;
            if (roll < 0.2 && !pauses.empty())
                begin = pauses.back().second;  // abutting
            else if (roll < 0.4 && !pauses.empty())
                begin = pauses.back().second - len / 2.0;  // overlapping
            else
                begin = t + rng.exponential(40.0);
            pauses.emplace_back(begin, begin + len);
            t = std::max(t, begin + len);
        }
        // Shuffle the recording order: the kernel sorts and merges.
        for (std::size_t i = pauses.size(); i > 1; --i)
            std::swap(pauses[i - 1], pauses[rng.uniformInt(i)]);
        // A span that clips pauses at both ends.
        const double begin = rng.uniform(0.0, 30.0);
        const double end = t * rng.uniform(0.6, 1.1);
        expectMmuMatchesOracle(pauses, begin, std::max(end, begin + 1.0));
    }
}

TEST(MmuKernelTest, EdgeTrainsMatchBinarySearch)
{
    // No pauses, one pause covering the span, pauses outside the span,
    // and a dense abutting train.
    expectMmuMatchesOracle({}, 0.0, 1000.0);
    expectMmuMatchesOracle({{-50.0, 2000.0}}, 0.0, 1000.0);
    expectMmuMatchesOracle({{-50.0, -10.0}, {1200.0, 1300.0}}, 0.0,
                           1000.0);
    expectMmuMatchesOracle({{0.0, 10.0}, {990.0, 1000.0}}, 0.0, 1000.0);
    Pauses train;
    for (int i = 0; i < 100; ++i)
        train.emplace_back(i * 10.0, i * 10.0 + (i % 3 == 0 ? 10.0 : 4.0));
    expectMmuMatchesOracle(train, 0.0, 1000.0);
    expectMmuMatchesOracle(train, 5.0, 995.0);
}

// ---------------------------------------------------------------------
// Quantiles.
// ---------------------------------------------------------------------

void
expectQuantilesMatchSort(std::vector<double> values,
                         const std::vector<double> &qs)
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> expected;
    for (double q : qs)
        expected.push_back(quantileSorted(sorted, q));
    expectSameBits(expected, quantiles(values, qs), "quantiles");

    std::vector<double> single;
    for (double q : qs)
        single.push_back(quantile(values, q));
    expectSameBits(expected, single, "quantile");
}

TEST(QuantileKernelTest, MatchesSortOnSmallAndDegenerateSamples)
{
    std::vector<double> qs = paperPercentiles();
    qs.insert(qs.end(), {1.0});
    expectQuantilesMatchSort({42.0}, qs);
    expectQuantilesMatchSort({3.0, 1.0}, qs);
    expectQuantilesMatchSort({1.0, 3.0}, {0.0, 0.25, 0.5, 0.5, 1.0});
    expectQuantilesMatchSort(std::vector<double>(37, 7.5), qs);
    expectQuantilesMatchSort({5.0, 1.0, 5.0, 5.0, 1.0, 9.0, 1.0},
                             {0.0, 0.1, 0.3, 0.5, 0.5, 0.9, 1.0});
}

TEST(QuantileKernelTest, MatchesSortOnRandomSamples)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        support::Rng rng(seed);
        const std::size_t n = 1 + rng.uniformInt(5000);
        std::vector<double> values;
        for (std::size_t i = 0; i < n; ++i) {
            // Heavy duplicates on some seeds.
            values.push_back(seed % 3 == 0
                                 ? static_cast<double>(rng.uniformInt(20))
                                 : rng.exponential(1e6));
        }
        std::vector<double> qs;
        for (int i = 0; i < 12; ++i)
            qs.push_back(rng.uniform());
        qs.push_back(0.0);
        qs.push_back(1.0);
        std::sort(qs.begin(), qs.end());
        expectQuantilesMatchSort(values, qs);
        expectQuantilesMatchSort(values, paperPercentiles());
    }
}

TEST(QuantileKernelTest, PercentileCurveMatchesSort)
{
    support::Rng rng(11);
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i)
        values.push_back(rng.heavyTail(1e5, 1.8));
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> expected, actual;
    for (const auto &[p, v] : percentileCurve(values)) {
        expected.push_back(quantileSorted(sorted, p));
        actual.push_back(v);
    }
    expectSameBits(expected, actual, "percentileCurve");
    EXPECT_TRUE(percentileCurve({}).empty());
}

// ---------------------------------------------------------------------
// Synthetic starts.
// ---------------------------------------------------------------------

/**
 * Synthetic starts by the replaced construction: every breakpoint of
 * the smoothed cumulative arrival function materialized, sorted and
 * tabulated, then inverted with the table. The replaced sort left the
 * order of equal breakpoints unspecified; here it is the kernel's rule
 * (rising before falling), so tied inputs have one answer too.
 */
std::vector<double>
oracleSyntheticStarts(std::vector<double> starts, double window_ns)
{
    const std::size_t n = starts.size();
    std::sort(starts.begin(), starts.end());
    if (n == 0)
        return {};
    const double t0 = starts.front();
    const double t1 = starts.back();
    const double span = t1 - t0;
    if (span <= 0.0)
        return starts;
    if (window_ns > 0.0 && window_ns < span * 1e-9)
        return starts;
    if (window_ns <= 0.0 || window_ns >= 2.0 * span) {
        std::vector<double> synth(n);
        for (std::size_t i = 0; i < n; ++i) {
            synth[i] = t0 + (static_cast<double>(i) + 0.5) /
                                static_cast<double>(n) * span;
        }
        return synth;
    }

    struct Breakpoint {
        double t;
        double slope_delta;
    };
    std::vector<Breakpoint> breaks;
    const double half = window_ns / 2.0;
    const double unit_slope = 1.0 / window_ns;
    auto add_interval = [&](double lo, double hi) {
        if (hi <= lo)
            return;
        breaks.push_back({lo, unit_slope});
        breaks.push_back({hi, -unit_slope});
    };
    for (double s : starts) {
        const double a = s - half;
        const double b = s + half;
        add_interval(std::max(a, t0), std::min(b, t1));
        if (a < t0)
            add_interval(t0, t0 + (t0 - a));
        if (b > t1)
            add_interval(t1 - (b - t1), t1);
    }
    std::sort(breaks.begin(), breaks.end(),
              [](const Breakpoint &a, const Breakpoint &b) {
                  return a.t < b.t ||
                         (a.t == b.t && a.slope_delta > b.slope_delta);
              });

    std::vector<double> bp_t, bp_r;
    double slope = 0.0;
    double r = 0.0;
    double prev_t = t0;
    bp_t.push_back(t0);
    bp_r.push_back(0.0);
    for (const auto &b : breaks) {
        r += slope * (b.t - prev_t);
        slope += b.slope_delta;
        prev_t = b.t;
        bp_t.push_back(b.t);
        bp_r.push_back(r);
    }
    r += slope * (t1 - prev_t);
    bp_t.push_back(t1);
    bp_r.push_back(r);
    const double total = r;

    std::vector<double> synth(n);
    std::size_t seg = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double target = (static_cast<double>(i) + 0.5) /
                              static_cast<double>(n) * total;
        while (seg + 1 < bp_r.size() && bp_r[seg + 1] < target)
            ++seg;
        const double r_lo = bp_r[seg];
        const double r_hi = seg + 1 < bp_r.size() ? bp_r[seg + 1] : total;
        const double t_lo = bp_t[seg];
        const double t_hi = seg + 1 < bp_t.size() ? bp_t[seg + 1] : t1;
        if (r_hi > r_lo) {
            synth[i] = t_lo + (target - r_lo) / (r_hi - r_lo) *
                                  (t_hi - t_lo);
        } else {
            synth[i] = t_hi;
        }
    }
    return synth;
}

/** Windows from identity-short to full smoothing, relative to span. */
std::vector<double>
smoothingWindows(double span)
{
    return {0.0,         span * 1e-10, span * 1e-6, span * 1e-3,
            span * 0.01, span * 0.1,   span * 0.5,  span * 0.99,
            span,        span * 1.7,   span * 2.0,  span * 5.0};
}

void
expectSyntheticMatchesOracle(const LatencyRecorder &rec)
{
    std::vector<double> starts;
    for (const auto &e : rec.events())
        starts.push_back(e.start);
    const double span = rec.empty()
        ? 1.0
        : *std::max_element(starts.begin(), starts.end()) -
              *std::min_element(starts.begin(), starts.end());
    for (double window : smoothingWindows(span)) {
        SCOPED_TRACE(testing::Message() << "window " << window);
        expectSameBits(oracleSyntheticStarts(starts, window),
                       rec.syntheticStarts(window), "syntheticStarts");
    }
}

TEST(SyntheticKernelTest, TieFreeArrivalsMatchSortedBreakpoints)
{
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        support::Rng rng(seed);
        LatencyRecorder rec;
        double t = rng.uniform(0.0, 1e6);
        const int n = 1 + static_cast<int>(rng.uniformInt(3000));
        for (int i = 0; i < n; ++i) {
            // Bursty arrivals with occasional long gaps.
            t += rng.uniform() < 0.05 ? rng.exponential(5000.0)
                                      : rng.exponential(100.0);
            rec.record(t, t + rng.exponential(80.0));
        }
        expectSyntheticMatchesOracle(rec);
    }
}

TEST(SyntheticKernelTest, ShuffledArrivalsMatchSortedBreakpoints)
{
    // Many short runs: the start order is a full merge sort.
    support::Rng rng(5);
    std::vector<double> starts;
    for (int i = 0; i < 2000; ++i)
        starts.push_back(rng.uniform(1e3, 1e7));
    LatencyRecorder rec;
    for (double s : starts)
        rec.record(s, s + 1.0);
    expectSyntheticMatchesOracle(rec);
}

TEST(SyntheticKernelTest, LaneInterleavedRunsMatchSortedBreakpoints)
{
    // The closed-loop shape: every lane is one start-ordered run, and
    // all lanes share the first start.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        support::Rng rng(seed);
        LatencyRecorder rec;
        const int lanes = 1 + static_cast<int>(rng.uniformInt(32));
        for (int lane = 0; lane < lanes; ++lane) {
            double start = 5e8;
            for (int i = 0; i < 400; ++i) {
                const double end = start + rng.exponential(2e5);
                rec.record(start, end);
                start = end;
            }
        }
        expectSyntheticMatchesOracle(rec);
    }
}

TEST(SyntheticKernelTest, TiedEdgesTakeRisingBeforeFalling)
{
    // Integer starts and an even integer window: one start's window
    // closes exactly where another's opens, at almost every breakpoint,
    // and 1/W is inexact, so the order within a tie shows in the bits.
    support::Rng rng(3);
    LatencyRecorder rec;
    for (int i = 0; i < 1500; ++i) {
        const double start = static_cast<double>(rng.uniformInt(1000));
        rec.record(start, start + 1.0);
    }
    std::vector<double> starts;
    for (const auto &e : rec.events())
        starts.push_back(e.start);
    for (double window : {2.0, 6.0, 10.0, 46.0}) {
        SCOPED_TRACE(testing::Message() << "window " << window);
        expectSameBits(oracleSyntheticStarts(starts, window),
                       rec.syntheticStarts(window), "syntheticStarts");
    }
}

TEST(SyntheticKernelTest, DegenerateRecordersMatch)
{
    LatencyRecorder empty;
    EXPECT_TRUE(empty.syntheticStarts(100.0).empty());
    LatencyRecorder one;
    one.record(10.0, 20.0);
    expectSyntheticMatchesOracle(one);
    LatencyRecorder simultaneous;
    for (int i = 0; i < 5; ++i)
        simultaneous.record(3.0, 4.0 + i);
    expectSyntheticMatchesOracle(simultaneous);
    LatencyRecorder two;
    two.record(0.0, 1.0);
    two.record(100.0, 101.0);
    expectSyntheticMatchesOracle(two);
}

// ---------------------------------------------------------------------
// Start order.
// ---------------------------------------------------------------------

TEST(StartOrderTest, ByStartIsAStableSortByStart)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        support::Rng rng(seed);
        LatencyRecorder rec;
        const int lanes = 1 + static_cast<int>(rng.uniformInt(12));
        for (int lane = 0; lane < lanes; ++lane) {
            // Integer-valued starts: plenty of ties within and across
            // runs, each event tagged by its record index via `end`.
            double start = static_cast<double>(rng.uniformInt(5));
            const int count = static_cast<int>(rng.uniformInt(200));
            for (int i = 0; i < count; ++i) {
                rec.record(start, start + static_cast<double>(rec.size()));
                start += static_cast<double>(rng.uniformInt(3));
            }
        }
        std::vector<LatencyEvent> expected = rec.events();
        std::stable_sort(expected.begin(), expected.end(),
                         [](const LatencyEvent &a, const LatencyEvent &b) {
                             return a.start < b.start;
                         });
        const auto actual = rec.byStart();
        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(expected[i].start, actual[i].start) << i;
            ASSERT_EQ(expected[i].end, actual[i].end) << i;
            ASSERT_EQ(expected[i].intended, actual[i].intended) << i;
        }
    }
}

TEST(StartOrderTest, MeteredPairsWithByStart)
{
    // Tied starts with different ends: each metered value belongs to
    // the event at the same position of byStart().
    LatencyRecorder rec;
    for (int lane = 0; lane < 4; ++lane) {
        double start = 0.0;
        for (int i = 0; i < 50; ++i) {
            const double end = start + 1.0 + lane;
            rec.record(start, end);
            start = end;
        }
    }
    const auto order = rec.byStart();
    const auto synth = rec.syntheticStarts(20.0);
    const auto metered = rec.meteredLatencies(20.0);
    ASSERT_EQ(metered.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        const double expected =
            order[i].end - std::min(order[i].start, synth[i]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(expected),
                  std::bit_cast<std::uint64_t>(metered[i]))
            << i;
    }
}

} // namespace
} // namespace capo::metrics
