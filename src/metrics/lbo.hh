/**
 * @file
 * Lower Bound Overhead (LBO) analysis (Cai et al., ISPASS 2022;
 * paper Sections 4.5 and 6.2).
 *
 * The cost of garbage collection cannot be measured directly because
 * much of it is woven into the application (barriers, allocation
 * paths, locality effects). LBO distills a conservative baseline: for
 * every (collector, heap size) measurement, subtract the
 * easily-attributable stop-the-world cost; the minimum such residue
 * over all configurations approximates an ideal zero-cost GC from
 * above. Overhead of any configuration is its total cost divided by
 * that distilled baseline — an *underestimate* (lower bound) of the
 * true overhead. Both wall-clock and task-clock (total CPU) axes are
 * distilled independently.
 */

#ifndef CAPO_METRICS_LBO_HH
#define CAPO_METRICS_LBO_HH

#include <map>
#include <string>
#include <vector>

#include "report/table.hh"

namespace capo::metrics {

/** Mean measured costs of one (collector, heap-size) configuration. */
struct RunCost
{
    double wall = 0.0;      ///< Wall-clock time (ns).
    double cpu = 0.0;       ///< Task clock (cpu-ns).
    double stw_wall = 0.0;  ///< JVMTI-attributable pause wall time.
    double stw_cpu = 0.0;   ///< Collector CPU inside pause windows.
};

/** Overhead relative to the distilled baseline (>= 1 by construction
 *  for the configuration that defines the baseline; ~1 elsewhere). */
struct LboOverhead
{
    double wall = 0.0;
    double cpu = 0.0;
};

/**
 * Accumulates per-configuration measurements for one benchmark and
 * distills lower-bound overheads.
 */
class LboAnalysis
{
  public:
    /** Record mean costs for a configuration. */
    void add(const std::string &collector, double heap_factor,
             const RunCost &cost);

    /** Distilled wall-clock baseline (min wall - stw_wall). */
    double baselineWall() const;

    /** Distilled task-clock baseline (min cpu - stw_cpu). */
    double baselineCpu() const;

    /** Overhead of one configuration. Fatal if absent. */
    LboOverhead overhead(const std::string &collector,
                         double heap_factor) const;

    /** True if the configuration was measured. */
    bool has(const std::string &collector, double heap_factor) const;

    /** Heap factors present for a collector, ascending. */
    std::vector<double> factors(const std::string &collector) const;

    /** Collector names present, in insertion order. */
    std::vector<std::string> collectors() const;

    bool empty() const { return costs_.empty(); }

  private:
    using Key = std::pair<std::string, double>;
    std::map<Key, RunCost> costs_;
    std::vector<std::string> order_;
};

/**
 * The analysis as a result table (runbms' lbo_<workload>.csv): one
 * row per configuration, collectors in insertion order and factors
 * ascending, columns collector, heap_factor, wall_overhead,
 * cpu_overhead.
 */
report::ResultTable lboTable(const LboAnalysis &analysis);

} // namespace capo::metrics

#endif // CAPO_METRICS_LBO_HH
