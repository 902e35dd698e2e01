/**
 * @file
 * Integrated workload characterization: measuring nominal statistics.
 *
 * DaCapo Chopin ships precomputed statistics because they are
 * "methodologically and computationally non-trivial to calculate";
 * capo reproduces the *calculation*: each measurable metric is derived
 * from actual experiment runs (min-heap searches, heap sweeps,
 * machine-configuration sensitivity runs, counter sessions). Metrics
 * that require bytecode instrumentation of real Java programs (the A
 * and B groups) and the leak statistic are taken from the shipped
 * tables, exactly as benchmark users consume them.
 */

#ifndef CAPO_HARNESS_CHARACTERIZE_HH
#define CAPO_HARNESS_CHARACTERIZE_HH

#include "harness/runner.hh"
#include "stats/stat_table.hh"
#include "workloads/descriptor.hh"

namespace capo::harness {

/** Knobs for characterization runs. */
struct CharacterizeOptions
{
    ExperimentOptions base;

    /** Invocations for the PSD (noise) measurement. */
    int psd_invocations = 5;

    /** Iterations for the PWU (warmup) measurement. */
    int warmup_iterations = 10;

    /** Heap factors defining "tight" and "roomy" for GSS. The tight
     *  point sits just above the minimum heap, where the sensitivity
     *  the statistic describes actually manifests. */
    double tight_factor = 1.1;
    double roomy_factor = 4.0;

    /** Include the slower sensitivity experiments (PFS/PLS/PMS/...). */
    bool sensitivity_experiments = true;

    /** Include min-heap searches (GMD and size variants). */
    bool minheap_searches = true;
};

/**
 * Measure every measurable nominal statistic for one workload.
 * Unmeasurable metrics are left unavailable in the result.
 */
void measureWorkloadStats(const workloads::Descriptor &workload,
                          const CharacterizeOptions &options,
                          stats::StatTable &out);

} // namespace capo::harness

#endif // CAPO_HARNESS_CHARACTERIZE_HH
