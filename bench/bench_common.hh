/**
 * @file
 * Shared helpers for the experiment-reproduction bodies.
 *
 * Each experiment regenerates one table or figure from the paper.
 * They are registry-driven (report/experiment.hh): flag handling,
 * --full presets, banners and artifact flushing all live in the
 * registry runner, so what remains here is just the formatting
 * helpers the experiment bodies share. All file output goes through
 * the context's ArtifactSink — bench code never opens files
 * directly.
 */

#ifndef CAPO_BENCH_BENCH_COMMON_HH
#define CAPO_BENCH_BENCH_COMMON_HH

#include <string>

#include "report/experiment.hh"
#include "report/table.hh"
#include "support/strfmt.hh"

namespace capo::bench {

/** Format an LBO overhead value ("1.153"). */
inline std::string
overhead(double value)
{
    return support::fixed(value, 3);
}

/** Format a latency in ms with three significant figures. */
inline std::string
latencyMs(double ns)
{
    return support::fixed(ns / 1e6, 3);
}

} // namespace capo::bench

#endif // CAPO_BENCH_BENCH_COMMON_HH
