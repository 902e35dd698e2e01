#include "metrics/lbo.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace capo::metrics {

void
LboAnalysis::add(const std::string &collector, double heap_factor,
                 const RunCost &cost)
{
    CAPO_ASSERT(cost.wall > 0.0 && cost.cpu > 0.0,
                "LBO needs positive costs");
    CAPO_ASSERT(cost.stw_wall >= 0.0 && cost.stw_wall <= cost.wall,
                "pause wall time exceeds wall time");
    CAPO_ASSERT(cost.stw_cpu >= 0.0 && cost.stw_cpu <= cost.cpu,
                "pause CPU exceeds total CPU");
    if (std::find(order_.begin(), order_.end(), collector) ==
        order_.end()) {
        order_.push_back(collector);
    }
    costs_[{collector, heap_factor}] = cost;
}

double
LboAnalysis::baselineWall() const
{
    CAPO_ASSERT(!costs_.empty(), "no measurements to distill");
    double best = std::numeric_limits<double>::infinity();
    for (const auto &[key, cost] : costs_)
        best = std::min(best, cost.wall - cost.stw_wall);
    return best;
}

double
LboAnalysis::baselineCpu() const
{
    CAPO_ASSERT(!costs_.empty(), "no measurements to distill");
    double best = std::numeric_limits<double>::infinity();
    for (const auto &[key, cost] : costs_)
        best = std::min(best, cost.cpu - cost.stw_cpu);
    return best;
}

LboOverhead
LboAnalysis::overhead(const std::string &collector,
                      double heap_factor) const
{
    auto it = costs_.find({collector, heap_factor});
    CAPO_ASSERT(it != costs_.end(), "no measurement for ", collector,
                " at ", heap_factor, "x");
    LboOverhead o;
    o.wall = it->second.wall / baselineWall();
    o.cpu = it->second.cpu / baselineCpu();
    return o;
}

bool
LboAnalysis::has(const std::string &collector, double heap_factor) const
{
    return costs_.count({collector, heap_factor}) > 0;
}

std::vector<double>
LboAnalysis::factors(const std::string &collector) const
{
    std::vector<double> out;
    for (const auto &[key, cost] : costs_) {
        if (key.first == collector)
            out.push_back(key.second);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
LboAnalysis::collectors() const
{
    return order_;
}

report::ResultTable
lboTable(const LboAnalysis &analysis)
{
    report::ResultTable table(
        report::Schema{{"collector", report::Type::String},
                       {"heap_factor", report::Type::Double},
                       {"wall_overhead", report::Type::Double},
                       {"cpu_overhead", report::Type::Double}});
    for (const auto &collector : analysis.collectors()) {
        for (double factor : analysis.factors(collector)) {
            const auto o = analysis.overhead(collector, factor);
            table.addRow({report::Value::str(collector),
                          report::Value::dbl(factor),
                          report::Value::dbl(o.wall),
                          report::Value::dbl(o.cpu)});
        }
    }
    return table;
}

} // namespace capo::metrics
