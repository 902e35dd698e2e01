/**
 * @file
 * Crash-safe checkpoint/resume tests. The journal is append-only and
 * flushed per record, so a killed run's file is a prefix of a full
 * run's file (possibly plus one torn line); these tests simulate every
 * kill point by truncating a complete journal and assert the resumed
 * sweep's CSV is bitwise-identical to the uninterrupted run — at any
 * --jobs, across all five production collectors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/latency_experiment.hh"
#include "harness/lbo_experiment.hh"
#include "harness/minheap.hh"
#include "metrics/lbo.hh"
#include "report/codec.hh"
#include "workloads/registry.hh"

namespace capo::harness {
namespace {

constexpr std::uint64_t kHash = 0x5eedf00dcafe;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "capo_resume_" + name + ".ckpt";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeFile(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

// ---------------------------------------------------------------------
// Journal unit tests.

TEST(CheckpointJournalTest, DoublesRoundTripExactly)
{
    for (double v : {0.0, -0.0, 1.0, -1.5, 3.141592653589793,
                     1.23456789e300, 4.9e-324, 1e9 + 1.0 / 3.0}) {
        double back = 0.0;
        ASSERT_TRUE(report::decodeDouble(report::encodeDouble(v), back));
        EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0);
    }
    double out;
    EXPECT_FALSE(report::decodeDouble("", out));
    EXPECT_FALSE(report::decodeDouble("123", out));
    EXPECT_FALSE(report::decodeDouble("zz00000000000000", out));
}

TEST(CheckpointJournalTest, AppendLookupPersistResume)
{
    const auto path = tempPath("unit");
    std::string error;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        EXPECT_EQ(journal->entryCount(), 0u);
        journal->append("k1", {"a", "b"});
        journal->append("k2", {"c"});
        std::vector<std::string> fields;
        ASSERT_TRUE(journal->lookup("k1", fields));
        EXPECT_EQ(fields, (std::vector<std::string>{"a", "b"}));
        EXPECT_FALSE(journal->lookup("k3", fields));
    }
    {
        auto journal =
            CheckpointJournal::open(path, kHash, true, error);
        ASSERT_NE(journal, nullptr) << error;
        EXPECT_EQ(journal->entryCount(), 2u);
        std::vector<std::string> fields;
        ASSERT_TRUE(journal->lookup("k2", fields));
        EXPECT_EQ(fields, (std::vector<std::string>{"c"}));
        journal->append("k3", {"d"});
    }
    // Without resume the file is truncated and starts fresh.
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        EXPECT_EQ(journal->entryCount(), 0u);
    }
    std::remove(path.c_str());
}

TEST(CheckpointJournalTest, HashMismatchRefusesResume)
{
    const auto path = tempPath("hash");
    std::string error;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
    }
    auto journal =
        CheckpointJournal::open(path, kHash + 1, true, error);
    EXPECT_EQ(journal, nullptr);
    EXPECT_NE(error.find("header mismatch"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CheckpointJournalTest, TornFinalRecordIsDropped)
{
    const auto path = tempPath("torn");
    std::string error;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        journal->append("whole", {"1"});
        journal->append("doomed", {"2"});
    }
    // Chop mid-way through the final record, as a kill during the
    // append would.
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    writeFile(path, contents.substr(0, contents.size() - 3));

    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->entryCount(), 1u);
    std::vector<std::string> fields;
    EXPECT_TRUE(journal->lookup("whole", fields));
    EXPECT_FALSE(journal->lookup("doomed", fields));
    std::remove(path.c_str());
}

TEST(CheckpointJournalTest, MissingFileOnResumeStartsFresh)
{
    const auto path = tempPath("missing");
    std::remove(path.c_str());
    std::string error;
    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->entryCount(), 0u);
    std::remove(path.c_str());
}

TEST(CheckpointJournalTest, CompactMergesDuplicatesAndSorts)
{
    const auto path = tempPath("compact");
    std::string error;
    auto journal = CheckpointJournal::open(path, kHash, false, error);
    ASSERT_NE(journal, nullptr) << error;
    journal->append("b", {"1"});
    journal->append("a", {"2"});
    journal->append("b", {"3"});  // supersedes the first record
    EXPECT_EQ(journal->entryCount(), 2u);
    EXPECT_EQ(readLines(path).size(), 4u);  // header + 3 records

    ASSERT_TRUE(journal->compact());
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);  // header + one record per cell
    EXPECT_EQ(lines[1], "a\t2");  // key-sorted
    EXPECT_EQ(lines[2], "b\t3");  // last record won

    // The append stream survives compaction...
    journal->append("c", {"4"});
    EXPECT_EQ(readLines(path).size(), 4u);

    // ...and a resumed open sees the compacted + appended state.
    journal.reset();
    journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->entryCount(), 3u);
    std::vector<std::string> fields;
    ASSERT_TRUE(journal->lookup("b", fields));
    EXPECT_EQ(fields, (std::vector<std::string>{"3"}));
    std::remove(path.c_str());
}

TEST(CheckpointJournalTest, CompactedFileResumesIdentically)
{
    const auto &fop = workloads::byName("fop");
    const auto path = tempPath("compact_sweep");
    std::string error;

    harness::LboSweepOptions sweep;
    sweep.factors = {2.0};
    sweep.collectors = {gc::Algorithm::Serial, gc::Algorithm::G1};
    sweep.base.iterations = 2;
    sweep.base.invocations = 1;
    sweep.base.time_limit_sec = 300;

    report::ResultTable full;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        sweep.journal = journal.get();
        full = metrics::lboTable(runLboSweep(fop, sweep).analysis);
        ASSERT_TRUE(journal->compact());
    }
    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->entryCount(), 2u);
    sweep.journal = journal.get();
    const auto resumed = runLboSweep(fop, sweep);
    EXPECT_EQ(resumed.restored_cells, 2u);
    EXPECT_TRUE(metrics::lboTable(resumed.analysis).identical(full));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Kill-and-resume over a real sweep, all five production collectors.

LboSweepOptions
sweepOptions(int jobs)
{
    LboSweepOptions sweep;
    sweep.factors = {2.0, 3.0};
    sweep.collectors = gc::productionCollectors();
    sweep.base.iterations = 2;
    sweep.base.invocations = 2;
    sweep.base.time_limit_sec = 300;
    sweep.base.jobs = jobs;
    return sweep;
}

report::ResultTable
sweepTable(const WorkloadLbo &result)
{
    return metrics::lboTable(result.analysis);
}

TEST(ResumeSweepTest, ResumeFromAnyPrefixIsBitIdentical)
{
    const auto &fop = workloads::byName("fop");
    const auto path = tempPath("prefix");
    std::string error;

    // Uninterrupted reference run, journaling as it goes.
    auto sweep = sweepOptions(1);
    report::ResultTable full;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        sweep.journal = journal.get();
        const auto result = runLboSweep(fop, sweep);
        EXPECT_EQ(result.restored_cells, 0u);
        full = sweepTable(result);
        // Ten cells (5 collectors x 2 factors), one record each.
        EXPECT_EQ(journal->entryCount(), 10u);
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 11u);  // header + 10 cells

    // Because the journal is append-only and per-record flushed, a
    // SIGKILL at any moment leaves some prefix of these lines.
    // Replay a spread of kill points — header only, early, midway,
    // one-cell-short, complete — at both -j1 and -j8.
    for (std::size_t keep : {1u, 2u, 6u, 10u, 11u}) {
        std::string prefix;
        for (std::size_t i = 0; i < keep; ++i)
            prefix += lines[i] + "\n";
        for (int jobs : {1, 8}) {
            writeFile(path, prefix);
            auto journal =
                CheckpointJournal::open(path, kHash, true, error);
            ASSERT_NE(journal, nullptr) << error;
            EXPECT_EQ(journal->entryCount(), keep - 1);

            auto resumed = sweepOptions(jobs);
            resumed.journal = journal.get();
            const auto result = runLboSweep(fop, resumed);
            EXPECT_EQ(result.restored_cells, keep - 1);
            EXPECT_TRUE(sweepTable(result).identical(full))
                << "prefix " << keep << " jobs " << jobs;
            // The journal is complete again after the resumed run.
            EXPECT_EQ(journal->entryCount(), 10u);
        }
    }
    std::remove(path.c_str());
}

TEST(ResumeSweepTest, TornLineResumesAndRerunsThatCell)
{
    const auto &fop = workloads::byName("fop");
    const auto path = tempPath("sweep_torn");
    std::string error;

    auto sweep = sweepOptions(1);
    report::ResultTable full;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        sweep.journal = journal.get();
        full = sweepTable(runLboSweep(fop, sweep));
    }
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    writeFile(path, contents.substr(0, contents.size() - 5));

    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->entryCount(), 9u);  // torn record dropped

    auto resumed = sweepOptions(8);
    resumed.journal = journal.get();
    const auto result = runLboSweep(fop, resumed);
    EXPECT_EQ(result.restored_cells, 9u);
    EXPECT_TRUE(sweepTable(result).identical(full));
    std::remove(path.c_str());
}

TEST(ResumeSweepTest, TracedSweepBypassesRestoreButStillJournals)
{
    const auto &fop = workloads::byName("fop");
    const auto path = tempPath("traced");
    std::string error;

    auto sweep = sweepOptions(1);
    sweep.factors = {2.0};
    sweep.collectors = {gc::Algorithm::G1};
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        sweep.journal = journal.get();
        runLboSweep(fop, sweep);
        EXPECT_EQ(journal->entryCount(), 1u);
    }
    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    trace::TraceSink sink;
    sweep.journal = journal.get();
    sweep.base.trace = &sink;
    const auto result = runLboSweep(fop, sweep);
    // Cells re-ran (the journal has no timelines) yet the trace is
    // fully populated and the journal is intact.
    EXPECT_EQ(result.restored_cells, 0u);
    EXPECT_GT(sink.eventCount(), 0u);
    EXPECT_EQ(journal->entryCount(), 1u);
    std::remove(path.c_str());
}

TEST(ResumeSweepTest, MinHeapGridResumes)
{
    const std::vector<std::string> names = {"fop"};
    const std::vector<gc::Algorithm> collectors = {
        gc::Algorithm::Serial, gc::Algorithm::G1};
    ExperimentOptions options;
    options.iterations = 2;
    options.invocations = 1;
    options.time_limit_sec = 300;

    const auto path = tempPath("minheap");
    std::string error;
    MinHeapGrid full;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        full = findMinHeapGrid(names, collectors, options, 0.05,
                               journal.get());
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);  // header + 2 cells

    // Keep only the first cell; the resumed grid must match exactly.
    writeFile(path, lines[0] + "\n" + lines[1] + "\n");
    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    options.jobs = 8;
    const auto resumed = findMinHeapGrid(names, collectors, options,
                                         0.05, journal.get());
    ASSERT_EQ(resumed.cells.size(), full.cells.size());
    for (std::size_t i = 0; i < full.cells.size(); ++i) {
        EXPECT_EQ(resumed.cells[i].result.min_heap_mb,
                  full.cells[i].result.min_heap_mb);
        EXPECT_EQ(resumed.cells[i].result.probes,
                  full.cells[i].result.probes);
        EXPECT_EQ(resumed.cells[i].result.converged,
                  full.cells[i].result.converged);
    }
    EXPECT_EQ(journal->entryCount(), 2u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Strict decoding: a journal field that does not decode is a miss, so
// the cell re-runs instead of restoring a silently wrong value.

/** Rewrite the journal at @p path with field @p field (0 = first after
 *  the key) of record @p record (1 = first after the header) replaced
 *  by @p value. */
void
corruptField(const std::string &path, const std::vector<std::string> &lines,
             std::size_t record, std::size_t field,
             const std::string &value)
{
    std::string contents;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i != record) {
            contents += lines[i] + "\n";
            continue;
        }
        auto fields = report::decodeRecord(lines[i]);
        fields.at(field + 1) = value;
        contents += report::encodeRecord(fields);
    }
    writeFile(path, contents);
}

std::string
gridText(const MinHeapGrid &grid)
{
    std::string text;
    for (const auto &cell : grid.cells) {
        text += cell.workload + "/" + gc::algorithmName(cell.algorithm) +
                " " + report::encodeDouble(cell.result.min_heap_mb) +
                " " + std::to_string(cell.result.probes) + " " +
                (cell.result.converged ? "1" : "0") + "\n";
    }
    return text;
}

TEST(ResumeSweepTest, MalformedMinHeapFieldRerunsThatCell)
{
    const std::vector<std::string> names = {"fop"};
    const std::vector<gc::Algorithm> collectors = {
        gc::Algorithm::Serial, gc::Algorithm::G1};
    ExperimentOptions options;
    options.iterations = 2;
    options.invocations = 1;
    options.time_limit_sec = 300;

    const auto path = tempPath("minheap_strict");
    std::string error;
    std::string full_text;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        full_text = gridText(findMinHeapGrid(names, collectors, options,
                                             0.05, journal.get()));
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);  // header + 2 cells
    // A lenient parse would read "12x" as 12 probes and "yes" as not
    // converged; both must differ from the truth to be caught.
    const auto record = report::decodeRecord(lines[1]);
    ASSERT_EQ(record.size(), 4u);
    ASSERT_NE(record[2], "12");
    ASSERT_EQ(record[3], "1");

    const std::pair<std::size_t, const char *> cases[] = {{1, "12x"},
                                                          {2, "yes"}};
    for (const auto &[field, value] : cases) {
        corruptField(path, lines, 1, field, value);
        auto journal = CheckpointJournal::open(path, kHash, true, error);
        ASSERT_NE(journal, nullptr) << error;
        const auto resumed = findMinHeapGrid(names, collectors, options,
                                             0.05, journal.get());
        EXPECT_EQ(gridText(resumed), full_text) << value;
        // The corrupted cell re-ran and journaled again.
        EXPECT_EQ(readLines(path).size(), 4u) << value;
    }
    std::remove(path.c_str());
}

std::string
lboText(const WorkloadLbo &result)
{
    const auto table = sweepTable(result);
    std::string text;
    for (std::size_t i = 0; i < table.rowCount(); ++i)
        text += report::encodeRecord(table.encodeRow(i));
    for (const auto &e : result.errors) {
        text += e.workload + "," + e.collector + "," +
                report::encodeDouble(e.heap_factor) + "," +
                std::to_string(e.invocation) + "," +
                std::to_string(e.attempts) + "," + e.kind + "\n";
    }
    return text;
}

TEST(ResumeSweepTest, MalformedLboErrorFieldRerunsThatCell)
{
    // Injected OOMs quarantine invocations, so the cell's journal
    // record carries "e:<invocation>:<attempts>:<kind>" fields.
    const auto &fop = workloads::byName("fop");
    auto sweep = sweepOptions(1);
    sweep.factors = {2.0};
    sweep.collectors = {gc::Algorithm::G1};
    sweep.base.invocations = 3;
    sweep.base.faults.setRate(fault::Site::AllocOom, 0.05);
    sweep.base.faults.seed = 11;

    const auto path = tempPath("lbo_strict");
    std::string error;
    std::string full_text;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        sweep.journal = journal.get();
        full_text = lboText(runLboSweep(fop, sweep));
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);  // header + 1 cell
    // Corrupt the invocation of an error that is not invocation 0
    // (a lenient parse reads "abc" as 0).
    const auto record = report::decodeRecord(lines[1]);
    std::size_t field = 0;
    for (std::size_t i = 7; i < record.size() && field == 0; ++i) {
        if (record[i].rfind("e:0:", 0) != 0)
            field = i - 1;
    }
    ASSERT_NE(field, 0u) << "no error past invocation 0: " << lines[1];
    const std::string mutated =
        "e:abc" + record[field + 1].substr(record[field + 1].find(':', 2));
    corruptField(path, lines, 1, field, mutated);

    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    sweep.journal = journal.get();
    const auto resumed = runLboSweep(fop, sweep);
    EXPECT_EQ(resumed.restored_cells, 0u);
    EXPECT_EQ(lboText(resumed), full_text);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Latency plans journal per-cell quantiles (DESIGN.md §8,
// latency/<workload>/<collector>/<factor-bits>) and resume bitwise.

LatencySweepOptions
latencyOptions(int jobs)
{
    LatencySweepOptions sweep;
    sweep.factors = {2.0};
    sweep.collectors = {gc::Algorithm::G1, gc::Algorithm::Shenandoah};
    sweep.base.iterations = 2;
    sweep.base.time_limit_sec = 300;
    sweep.base.jobs = jobs;
    return sweep;
}

void
expectCellsBitIdentical(const LatencySweep &a, const LatencySweep &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const auto &x = a.cells[i];
        const auto &y = b.cells[i];
        EXPECT_EQ(x.workload, y.workload);
        EXPECT_EQ(x.collector, y.collector);
        EXPECT_EQ(x.ok, y.ok);
        const double xs[] = {x.p50_ns, x.p99_ns, x.p999_ns,
                             x.metered_p50_ns, x.metered_p999_ns};
        const double ys[] = {y.p50_ns, y.p99_ns, y.p999_ns,
                             y.metered_p50_ns, y.metered_p999_ns};
        EXPECT_EQ(std::memcmp(xs, ys, sizeof xs), 0)
            << "cell " << i << " quantiles differ";
    }
}

TEST(ResumeSweepTest, LatencySweepResumesBitIdentical)
{
    const std::vector<std::string> names = {"lusearch"};
    const auto path = tempPath("latency");
    std::string error;

    LatencySweep full;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        auto sweep = latencyOptions(1);
        sweep.journal = journal.get();
        full = runLatencySweep(names, sweep);
        EXPECT_EQ(full.restored_cells, 0u);
        EXPECT_EQ(journal->entryCount(), 2u);
        for (const auto &cell : full.cells)
            EXPECT_TRUE(cell.have_raw);
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);  // header + 2 cells

    // Kill after the first cell: the resumed sweep restores it and
    // re-runs only the second, with bit-identical quantiles at any
    // --jobs.
    for (int jobs : {1, 8}) {
        writeFile(path, lines[0] + "\n" + lines[1] + "\n");
        auto journal =
            CheckpointJournal::open(path, kHash, true, error);
        ASSERT_NE(journal, nullptr) << error;
        auto sweep = latencyOptions(jobs);
        sweep.journal = journal.get();
        const auto resumed = runLatencySweep(names, sweep);
        EXPECT_EQ(resumed.restored_cells, 1u);
        EXPECT_TRUE(resumed.cells[0].restored);
        EXPECT_FALSE(resumed.cells[0].have_raw);
        expectCellsBitIdentical(full, resumed);
        EXPECT_EQ(journal->entryCount(), 2u);
    }
    std::remove(path.c_str());
}

TEST(ResumeSweepTest, LatencyRawSweepBypassesRestoreButStillJournals)
{
    const std::vector<std::string> names = {"lusearch"};
    const auto path = tempPath("latency_raw");
    std::string error;

    LatencySweep full;
    {
        auto journal =
            CheckpointJournal::open(path, kHash, false, error);
        ASSERT_NE(journal, nullptr) << error;
        auto sweep = latencyOptions(1);
        sweep.journal = journal.get();
        full = runLatencySweep(names, sweep);
    }
    // The journal holds quantiles, not request logs, so a sweep that
    // needs raw CSVs re-runs every cell — deterministically — while
    // the journal stays intact for summary-only resumes.
    auto journal = CheckpointJournal::open(path, kHash, true, error);
    ASSERT_NE(journal, nullptr) << error;
    auto sweep = latencyOptions(1);
    sweep.journal = journal.get();
    sweep.want_raw = true;
    const auto rerun = runLatencySweep(names, sweep);
    EXPECT_EQ(rerun.restored_cells, 0u);
    for (const auto &cell : rerun.cells) {
        EXPECT_FALSE(cell.restored);
        EXPECT_TRUE(cell.have_raw);
    }
    expectCellsBitIdentical(full, rerun);
    EXPECT_EQ(journal->entryCount(), 2u);
    std::remove(path.c_str());
}

} // namespace
} // namespace capo::harness
