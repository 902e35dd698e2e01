#include "trace/sampler.hh"

#include "sim/engine.hh"
#include "support/logging.hh"

namespace capo::trace {

MetricsSampler::MetricsSampler(TraceSink &sink, double interval_ns)
    : sink_(sink), interval_ns_(interval_ns)
{
    CAPO_ASSERT(interval_ns > 0.0, "sampling interval must be positive");
    track_ = sink_.registerTrack("counters");
}

void
MetricsSampler::addProbe(const std::string &name,
                         std::function<double()> read)
{
    CAPO_ASSERT(read != nullptr, "null metric probe");
    probes_.push_back(Probe{sink_.internName(name), std::move(read)});
}

void
MetricsSampler::attach(sim::Engine &engine)
{
    engine.addAgent(this);
}

sim::Action
MetricsSampler::resume(sim::Engine &engine)
{
    if (stop_requested_)
        return sim::Action::exit();
    const double now = engine.now();
    for (const auto &probe : probes_) {
        sink_.counter(track_, Category::Metrics, probe.name, now,
                      probe.read());
    }
    ++samples_;
    return sim::Action::sleepUntil(now + interval_ns_);
}

report::ResultTable
counterSummaryTable(const TraceSink &sink)
{
    report::ResultTable table(
        report::Schema{{"name", report::Type::String},
                       {"count", report::Type::Uint},
                       {"min", report::Type::Double},
                       {"mean", report::Type::Double},
                       {"max", report::Type::Double},
                       {"stddev", report::Type::Double}});
    for (const auto &counter : sink.counterSummaries()) {
        table.addRow({report::Value::str(counter.name),
                      report::Value::uinteger(counter.count),
                      report::Value::dbl(counter.min),
                      report::Value::dbl(counter.mean()),
                      report::Value::dbl(counter.max),
                      report::Value::dbl(counter.stddev())});
    }
    return table;
}

} // namespace capo::trace
