/**
 * @file
 * Minimum Mutator Utilization (Cheng & Blelloch 2001).
 *
 * MMU(w) is the worst-case fraction of CPU available to the mutator
 * over any window of length w. The paper (Figure 2, Section 4.4) uses
 * it to show why raw GC pause times are a poor proxy for user
 * experience: several short pauses can hurt a window as much as one
 * long pause. Capo implements MMU over the stop-the-world intervals
 * recorded by the GC event log.
 */

#ifndef CAPO_METRICS_MMU_HH
#define CAPO_METRICS_MMU_HH

#include <utility>
#include <vector>

namespace capo::metrics {

/**
 * Minimum mutator utilization over pause intervals.
 */
class Mmu
{
  public:
    /**
     * @param pauses Stop-the-world intervals (begin, end), ns.
     * @param run_begin Start of the observation span.
     * @param run_end End of the observation span.
     */
    Mmu(std::vector<std::pair<double, double>> pauses, double run_begin,
        double run_end);

    /**
     * MMU for a window of @p window_ns: the minimum over all window
     * placements of (window - pause time in window) / window.
     * O(P) over the P merged pauses.
     */
    double at(double window_ns) const;

    /** Total pause time in the span. */
    double totalPause() const { return total_pause_; }

    /** Longest single pause. */
    double maxPause() const { return max_pause_; }

  private:
    std::vector<std::pair<double, double>> pauses_;  ///< Merged, sorted.
    std::vector<double> prefix_;  ///< Pause time before pauses_[i].
    double begin_ = 0.0;
    double end_ = 0.0;
    double total_pause_ = 0.0;
    double max_pause_ = 0.0;
};

} // namespace capo::metrics

#endif // CAPO_METRICS_MMU_HH
