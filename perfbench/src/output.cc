#include "output.hh"

#include <cstdio>
#include <cstring>

#include "exec/seed.hh"
#include "report/codec.hh"
#include "support/logging.hh"

using namespace capo;

namespace perfbench {

std::string
Record::digest() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      exec::hashString(encoded)));
    return buf;
}

void
Output::table(const std::string &name, const report::Schema &schema)
{
    tables_[name] = &store_.table(name, schema);
}

void
Output::open(const std::string &key)
{
    records_.push_back({key, "", {}, false});
}

void
Output::row(const std::string &table, std::vector<report::Value> values)
{
    const auto it = tables_.find(table);
    if (it == tables_.end())
        support::fatal("perfbench: undeclared table " + table);
    const long index = static_cast<long>(records_.size()) - 1;
    if (index == corrupt_record_) {
        for (auto &value : values) {
            if (value.type() != report::Type::Double)
                continue;
            double d = value.asDouble();
            std::uint64_t bits;
            std::memcpy(&bits, &d, sizeof bits);
            bits ^= 1;
            std::memcpy(&d, &bits, sizeof bits);
            value = report::Value::dbl(d);
            corrupt_record_ = -1;  // one bit, once
            break;
        }
    }
    auto &t = *it->second;
    t.addRow(std::move(values));
    auto fields = t.encodeRow(t.rowCount() - 1);
    fields.insert(fields.begin(), table);
    records_.back().encoded += report::encodeRecord(fields);
}

void
Output::check(bool ok, const std::string &what)
{
    if (!ok)
        records_.back().violations.push_back(what);
}

std::size_t
Output::rowCount() const
{
    std::size_t rows = 0;
    for (const auto &[name, t] : tables_)
        rows += t->rowCount();
    return rows;
}

} // namespace perfbench
