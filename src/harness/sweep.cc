#include "harness/sweep.hh"

#include <memory>

#include "exec/parallel_for.hh"
#include "exec/pool.hh"
#include "trace/hot_metrics.hh"
#include "trace/sink.hh"

namespace capo::harness {

std::size_t
runSweep(std::size_t count, const ExperimentOptions &base,
         CheckpointJournal *journal, bool restorable,
         const SweepHooks &hooks)
{
    trace::TraceSink *sink = base.trace;

    std::vector<char> restored(count, 0);
    std::size_t restored_count = 0;
    if (journal != nullptr && sink == nullptr && restorable) {
        std::vector<std::string> fields;
        for (std::size_t i = 0; i < count; ++i) {
            if (journal->lookup(hooks.key(i), fields) &&
                hooks.decode(i, fields)) {
                restored[i] = 1;
                ++restored_count;
            }
        }
    }

    std::vector<std::unique_ptr<trace::TraceSink>> shards(
        sink != nullptr ? count : 0);
    exec::parallel_for(
        exec::Pool::shared(), count,
        [&](std::size_t i) {
            if (restored[i])
                return;
            ExperimentOptions options = base;
            if (sink != nullptr) {
                shards[i] = trace::TraceSink::acquireShard(
                    sink->shardOptions());
                options.trace = shards[i].get();
            }
            hooks.body(i, options);
            trace::hot::count(trace::hot::SweepCellsCompleted);
            if (journal != nullptr)
                journal->append(hooks.key(i), hooks.encode(i));
        },
        exec::resolveJobs(base.jobs));

    if (sink != nullptr) {
        // Each shard's time base advanced past every invocation it
        // holds, so it is also the cell's duration.
        const auto track = sink->registerTrack("harness");
        for (std::size_t i = 0; i < count; ++i) {
            const char *label = sink->internName(hooks.label(i));
            const double begin = sink->timeBase();
            const double end = begin + shards[i]->timeBase();
            sink->beginSpanAbs(track, trace::Category::Harness, label,
                               begin);
            sink->merge(*shards[i], begin);
            sink->endSpanAbs(track, trace::Category::Harness, label,
                             end);
            sink->setTimeBase(end);
            trace::TraceSink::releaseShard(std::move(shards[i]));
        }
    }
    return restored_count;
}

} // namespace capo::harness
