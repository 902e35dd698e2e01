/**
 * @file
 * The benchmark's span recorder: one span per call the benchmark makes
 * into a capo layer, kept in memory and written once when the pass
 * ends.
 *
 * Span names are "<layer>.<function>", where the layer is the src/
 * module the call enters (harness, metrics, report, workloads, gc,
 * exec). A span records its name, host start and end, the span that
 * was open when it began (its parent) and the run id that groups the
 * spans of one pass. Process CPU time is read at both ends as well, so
 * a layer's CPU cost is known even when the pool runs it on several
 * threads.
 *
 * A disabled recorder records nothing; Scope then costs a branch.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host CLOCK_MONOTONIC, seconds (the clock Python's monotonic()
 *  reads, so a parent process can compare stamps with ours). */
double monoNow();

/** Process user + system CPU, seconds, over every thread. */
double cpuNow();

/** Peak resident set of this process, MiB. */
double peakRssMb();

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;  ///< Seconds since the recorder's origin.
        double end = 0.0;
        double cpu_start = 0.0;  ///< Process CPU seconds at start.
        double cpu_end = 0.0;
        int parent = -1;  ///< Index of the enclosing span, -1 at root.
        std::uint64_t run = 0;

        double seconds() const { return end - start; }
        double cpuSeconds() const { return cpu_end - cpu_start; }
        /** "harness" for "harness.runLboSweep". */
        std::string layer() const;
    };

    SpanRecorder(bool enabled, std::uint64_t run_id);

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index
     *  (-1 when disabled). */
    int begin(const std::string &name);

    /** Close span @p index (must be the innermost open span). */
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span: its duration minus the part of it that its children
     *  cover. */
    std::vector<double> selfTimes() const;

    /** Self time summed per layer, seconds. */
    std::map<std::string, double> layerSelfTimes() const;

    /** Spans named @p name: count, total seconds, total CPU seconds
     *  and every duration (for percentiles). */
    struct NameTotals
    {
        std::size_t count = 0;
        double seconds = 0.0;
        double cpu_seconds = 0.0;
        std::vector<double> durations;
    };
    NameTotals totals(const std::string &name) const;

    /** Totals over every span whose layer is @p layer. */
    NameTotals layerTotals(const std::string &layer) const;

    /** Chrome trace-event JSON ("X" events, one track). */
    bool writeChromeTrace(const std::string &path) const;

    /** Per-layer self-time table (TSV: layer, spans, self_s, share). */
    bool writeSelfTimeTable(const std::string &path,
                            double wall_s) const;

  private:
    bool enabled_;
    std::uint64_t run_;
    double origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; also times itself when the recorder is disabled. */
class Scope
{
  public:
    Scope(SpanRecorder &recorder, const std::string &name)
        : recorder_(recorder), index_(recorder.begin(name)),
          start_(monoNow())
    {
    }
    ~Scope() { close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** End the span now; returns its host seconds. Idempotent. */
    double
    close()
    {
        if (!closed_) {
            seconds_ = monoNow() - start_;
            recorder_.end(index_);
            closed_ = true;
        }
        return seconds_;
    }

  private:
    SpanRecorder &recorder_;
    int index_;
    double start_;
    double seconds_ = 0.0;
    bool closed_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
