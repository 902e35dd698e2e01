#include "metrics/summary.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace capo::metrics {

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
sampleStddev(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    if (n < 2)
        return 0.0;
    const double m = mean(values);
    double ss = 0.0;
    for (double v : values)
        ss += (v - m) * (v - m);
    return std::sqrt(ss / static_cast<double>(n - 1));
}

double
geomean(const std::vector<double> &values)
{
    CAPO_ASSERT(!values.empty(), "geomean of empty sample");
    double log_sum = 0.0;
    for (double v : values) {
        CAPO_ASSERT(v > 0.0, "geomean needs positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/** Two-sided 97.5 % Student-t critical values by degrees of freedom. */
double
tCritical95(std::size_t dof)
{
    static const double table[] = {
        0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (dof == 0)
        return 0.0;
    if (dof < sizeof(table) / sizeof(table[0]))
        return table[dof];
    return 1.96;
}

} // namespace

double
confidenceHalfWidth95(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    if (n < 2)
        return 0.0;
    return tCritical95(n - 1) * sampleStddev(values) /
           std::sqrt(static_cast<double>(n));
}

Summary
summarize(const std::vector<double> &values)
{
    return Summary{mean(values), confidenceHalfWidth95(values),
                   values.size()};
}

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    CAPO_ASSERT(!sorted.empty(), "quantile of empty sample");
    CAPO_ASSERT(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::vector<double>
quantiles(std::vector<double> values, const std::vector<double> &qs)
{
    CAPO_ASSERT(qs.empty() || !values.empty(), "quantile of empty sample");
    CAPO_ASSERT(std::is_sorted(qs.begin(), qs.end()),
                "quantiles must be requested in ascending order");
    // quantileSorted reads order statistics lo and lo + 1 only, and lo
    // ascends with q: select each pair on the suffix that the previous
    // selection left unordered. Everything before position lo is no
    // greater than what follows, so the suffix holds exactly the order
    // statistics lo and up.
    const std::size_t n = values.size();
    auto from = values.begin();
    std::vector<double> out;
    out.reserve(qs.size());
    for (double q : qs) {
        CAPO_ASSERT(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
        const double pos = q * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        if (lo + 1 >= n) {
            out.push_back(*std::max_element(from, values.end()));
            continue;
        }
        const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
        std::nth_element(from, nth, values.end());
        from = nth;
        const double next = *std::min_element(nth + 1, values.end());
        const double frac = pos - static_cast<double>(lo);
        out.push_back(*nth * (1.0 - frac) + next * frac);
    }
    return out;
}

double
quantile(std::vector<double> values, double q)
{
    return quantiles(std::move(values), {q}).front();
}

} // namespace capo::metrics
