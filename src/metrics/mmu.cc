#include "metrics/mmu.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capo::metrics {

Mmu::Mmu(std::vector<std::pair<double, double>> pauses, double run_begin,
         double run_end)
    : begin_(run_begin), end_(run_end)
{
    CAPO_ASSERT(run_end >= run_begin, "invalid observation span");

    // Clip to the span, sort, and merge overlaps.
    std::vector<std::pair<double, double>> clipped;
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
    for (std::size_t i = 0; i < pauses_.size(); ++i) {
        const double len = pauses_[i].second - pauses_[i].first;
        prefix_[i + 1] = prefix_[i] + len;
        max_pause_ = std::max(max_pause_, len);
    }
    total_pause_ = prefix_.empty() ? 0.0 : prefix_.back();
}

double
Mmu::at(double window_ns) const
{
    CAPO_ASSERT(window_ns > 0.0, "window must be positive");
    const double span = end_ - begin_;
    if (span <= 0.0)
        return 1.0;
    const double w = std::min(window_ns, span);

    // The minimizing window starts at a pause begin or ends at a
    // pause end; checking both families is sufficient. Within a family
    // the window starts ascend with the pauses, so the first pause
    // ending after the window start and the first pause beginning at
    // or after its end only move forward: two indices sweep the
    // pauses once per family.
    const std::size_t count = pauses_.size();
    double worst_pause = 0.0;
    auto sweep = [&](auto window_start) {
        std::size_t first = 0;
        std::size_t last = 0;
        for (const auto &p : pauses_) {
            const double lo = std::clamp(window_start(p), begin_, end_ - w);
            const double hi = lo + w;
            while (first < count && pauses_[first].second <= lo)
                ++first;
            while (last < count && pauses_[last].first < hi)
                ++last;
            if (first >= last)
                continue;
            // Whole pauses via the prefix sums, edge pauses clipped.
            double total = prefix_[last] - prefix_[first];
            total -= std::max(0.0, lo - pauses_[first].first);
            total -= std::max(0.0, pauses_[last - 1].second - hi);
            worst_pause = std::max(worst_pause, std::max(0.0, total));
        }
    };
    sweep([](const auto &p) { return p.first; });
    sweep([w](const auto &p) { return p.second - w; });
    return std::max(0.0, (w - worst_pause) / w);
}

} // namespace capo::metrics
