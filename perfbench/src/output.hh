/**
 * @file
 * A pass's simulated outputs, as checked records.
 *
 * Every simulated value a workload produces goes into a typed
 * report::ResultTable (those tables are the artifacts the pass writes)
 * and, at the same time, into the exact record of one output cell: the
 * table rows encoded by report::codec, doubles as their IEEE-754 bit
 * patterns. A record's digest is FNV-1a over that encoding, so two
 * passes agree on a digest only when every bit of every output agrees.
 *
 * A record also carries the seed-independent invariant violations the
 * workload found in its values. A record fails when it has a violation
 * or when its digest differs from the recorded one; the benchmark's
 * error rate is failed records over records checked.
 */

#ifndef PERFBENCH_OUTPUT_HH
#define PERFBENCH_OUTPUT_HH

#include <map>
#include <string>
#include <vector>

#include "report/table.hh"

namespace perfbench {

struct Record
{
    std::string key;      ///< e.g. "lbo/avrora/G1/1.5"
    std::string encoded;  ///< Exact codec lines of the cell's rows.
    std::vector<std::string> violations;
    bool dnf = false;  ///< A simulated DNF: a result, not a failure.

    /** FNV-1a of the exact encoding, 16 hex digits. */
    std::string digest() const;
};

class Output
{
  public:
    /** @p corrupt_record: index of a record whose first double has its
     *  lowest bit flipped (-1: none). Proves the digest check fails. */
    explicit Output(long corrupt_record = -1)
        : corrupt_record_(corrupt_record)
    {
    }

    /** Declare a table (once per name). */
    void table(const std::string &name,
               const capo::report::Schema &schema);

    /** Start the next output record. */
    void open(const std::string &key);

    /** Append a row to @p table and to the open record. */
    void row(const std::string &table,
             std::vector<capo::report::Value> values);

    /** Record an invariant violation on the open record unless @p ok. */
    void check(bool ok, const std::string &what);

    /** Mark the open record a simulated DNF. */
    void dnf() { records_.back().dnf = true; }

    capo::report::ResultStore &store() { return store_; }
    const std::vector<Record> &records() const { return records_; }

    /** Rows across every table. */
    std::size_t rowCount() const;

  private:
    capo::report::ResultStore store_;
    std::map<std::string, capo::report::ResultTable *> tables_;
    std::vector<Record> records_;
    long corrupt_record_;
};

} // namespace perfbench

#endif // PERFBENCH_OUTPUT_HH
