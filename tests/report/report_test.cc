/**
 * @file
 * Tests for the capo::report layer: the exact result codec, typed
 * result tables and their writers, the ArtifactSink choke point
 * (retry, quarantine, Memory mode, fault injection) and the
 * experiment registry plumbing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "report/artifact.hh"
#include "report/codec.hh"
#include "report/experiment.hh"
#include "report/table.hh"

namespace capo::report {
namespace {

// ---------------------------------------------------------------------
// Codec: exact doubles and record framing.

TEST(CodecTest, DoublesRoundTripBitExactly)
{
    for (double v :
         {0.0, -0.0, 1.0, -1.5, 1.0 / 3.0, 3.141592653589793,
          1.23456789e300, 4.9e-324, -2.2250738585072014e-308,
          1e9 + 1.0 / 3.0}) {
        const auto text = encodeDouble(v);
        EXPECT_EQ(text.size(), 16u);
        double back = 0.0;
        ASSERT_TRUE(decodeDouble(text, back)) << text;
        EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
            << "bit pattern lost for " << v;
    }
}

TEST(CodecTest, DecodeDoubleRejectsMalformedText)
{
    double out = 0.0;
    EXPECT_FALSE(decodeDouble("", out));
    EXPECT_FALSE(decodeDouble("123", out));
    EXPECT_FALSE(decodeDouble("zz00000000000000", out));
    EXPECT_FALSE(decodeDouble("00000000000000000", out));
}

TEST(CodecTest, RecordFramingRoundTrips)
{
    const std::vector<std::string> fields = {"lbo/fop/G1", "1", "",
                                             encodeDouble(2.5)};
    const auto line = encodeRecord(fields);
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(decodeRecord(line.substr(0, line.size() - 1)), fields);

    EXPECT_TRUE(fieldIsClean("plain text with spaces"));
    EXPECT_FALSE(fieldIsClean("has\ttab"));
    EXPECT_FALSE(fieldIsClean("has\nnewline"));
}

// ---------------------------------------------------------------------
// Values and tables.

TEST(TableTest, ValuesEncodeDecodeExactly)
{
    const struct
    {
        Value value;
        Type type;
    } cases[] = {
        {Value::str("hello"), Type::String},
        {Value::dbl(1.0 / 3.0), Type::Double},
        {Value::integer(-42), Type::Int},
        {Value::uinteger(0xffffffffffffffffULL), Type::Uint},
        {Value::boolean(true), Type::Bool},
    };
    for (const auto &c : cases) {
        Value back;
        ASSERT_TRUE(Value::decode(c.type, c.value.encode(), back));
        EXPECT_TRUE(c.value.identical(back))
            << typeName(c.type) << " did not round-trip";
    }

    // Doubles compare by bit pattern: +0.0 and -0.0 are different
    // values even though they compare == as doubles.
    EXPECT_FALSE(Value::dbl(0.0).identical(Value::dbl(-0.0)));
}

Schema
smallSchema()
{
    return Schema{{"workload", Type::String},
                  {"factor", Type::Double},
                  {"completed", Type::Bool},
                  {"count", Type::Uint}};
}

ResultTable
smallTable()
{
    ResultTable table(smallSchema());
    table.addRow({Value::str("fop"), Value::dbl(2.0),
                  Value::boolean(true), Value::uinteger(3)});
    table.addRow({Value::str("h2"), Value::dbl(1.0 / 3.0),
                  Value::boolean(false), Value::uinteger(0)});
    return table;
}

TEST(TableTest, CsvIsStableAndExact)
{
    std::stringstream out;
    EXPECT_EQ(smallTable().writeCsv(out), 2u);
    const std::string csv = out.str();
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "workload,factor,completed,count");
    EXPECT_NE(csv.find("fop,2,1,3"), std::string::npos) << csv;

    // %.17g doubles re-parse exactly.
    const auto line2_at = csv.find("h2,");
    ASSERT_NE(line2_at, std::string::npos);
    const auto comma = csv.find(',', line2_at + 3);
    const double reparsed =
        std::strtod(csv.substr(line2_at + 3, comma).c_str(), nullptr);
    const double original = 1.0 / 3.0;
    EXPECT_EQ(std::memcmp(&reparsed, &original, sizeof original), 0);
}

TEST(TableTest, CsvQuotesFieldsPerRfc4180)
{
    // Commas, quotes and line breaks force quoting (quotes doubled);
    // every other field, header names included, is written verbatim.
    ResultTable table(Schema{{"a", Type::String}, {"b,c", Type::Int}});
    table.addRow({Value::str("x"), Value::integer(-2)});
    table.addRow({Value::str("hello, world"), Value::integer(0)});
    table.addRow({Value::str("say \"hi\"\nok"), Value::integer(1)});
    table.addRow({Value::str("cr\r"), Value::integer(2)});
    std::stringstream out;
    EXPECT_EQ(table.writeCsv(out), 4u);
    EXPECT_EQ(out.str(), "a,\"b,c\"\n"
                         "x,-2\n"
                         "\"hello, world\",0\n"
                         "\"say \"\"hi\"\"\nok\",1\n"
                         "\"cr\r\",2\n");
}

TEST(TableTest, RowsRoundTripThroughRecords)
{
    const auto table = smallTable();
    ResultTable rebuilt(table.schema());
    for (std::size_t i = 0; i < table.rowCount(); ++i)
        ASSERT_TRUE(rebuilt.addDecodedRow(table.encodeRow(i)));
    EXPECT_TRUE(rebuilt.identical(table));

    // Wrong arity and undecodable fields are rejected, not adopted.
    EXPECT_FALSE(rebuilt.addDecodedRow({"fop", "only-two"}));
    EXPECT_FALSE(rebuilt.addDecodedRow(
        {"fop", "not-a-bit-pattern", "1", "3"}));
    EXPECT_EQ(rebuilt.rowCount(), table.rowCount());
}

TEST(TableTest, RenderAsciiLaysOutExactBytes)
{
    // Pre-formatted string cells: identifiers left, numeric
    // presentation text and placeholders right, a blank row as the
    // group gap.
    ResultTable text(Schema{{"collector", Type::String},
                            {"mode", Type::String},
                            {"p99", Type::String},
                            {"ratio", Type::String}});
    const auto row = [&](const char *a, const char *b, const char *c,
                         const char *d) {
        text.addRow({Value::str(a), Value::str(b), Value::str(c),
                     Value::str(d)});
    };
    row("G1", "static", "12.345", "(3/22)");
    row("", "", "", "");
    row("Shen.", "adaptive", "-", "6.00x");
    row("longer-name", "x", "DNF", "?");
    std::ostringstream out;
    EXPECT_EQ(text.renderAscii(out), 4u);
    EXPECT_EQ(out.str(),
              "collector    mode         p99   ratio\n"
              "-------------------------------------\n"
              "G1           static    12.345  (3/22)\n"
              "\n"
              "Shen.        adaptive       -   6.00x\n"
              "longer-name  x            DNF       ?\n");

    // Typed columns: numbers right whatever their width; the last
    // column is left-aligned, so short cells leave no trailing space.
    ResultTable typed(Schema{{"name", Type::String},
                             {"value", Type::Int},
                             {"share", Type::Double},
                             {"note", Type::String}});
    typed.addRow({Value::str("x"), Value::integer(1), Value::dbl(0.5),
                  Value::str("a")});
    typed.addRow({Value::str("longer"), Value::integer(23),
                  Value::dbl(0.25), Value::str("wide note")});
    out.str("");
    EXPECT_EQ(typed.renderAscii(out), 2u);
    EXPECT_EQ(out.str(),
              "name    value  share  note\n"
              "-------------------------------\n"
              "x           1    0.5  a\n"
              "longer     23   0.25  wide note\n");
}

TEST(TableTest, StoreGetOrCreateKeepsInsertionOrder)
{
    ResultStore store;
    auto &first = store.table("beta", smallSchema());
    store.table("alpha", smallSchema());
    auto &again = store.table("beta", smallSchema());
    EXPECT_EQ(&first, &again);
    EXPECT_EQ(store.names(),
              (std::vector<std::string>{"beta", "alpha"}));
    EXPECT_NE(store.find("alpha"), nullptr);
    EXPECT_EQ(store.find("gamma"), nullptr);
}

// ---------------------------------------------------------------------
// ArtifactSink: the artifact I/O choke point.

TEST(ArtifactSinkTest, MemoryModeCapturesPayloads)
{
    ArtifactSink sink(".", ArtifactSink::Mode::Memory);
    EXPECT_TRUE(sink.write("a/b.csv", [](std::ostream &out) {
        out << "x,y\n1,2\n";
    }));
    EXPECT_EQ(sink.payload("a/b.csv"), "x,y\n1,2\n");
    EXPECT_EQ(sink.payload("absent.csv"), "");
    ASSERT_EQ(sink.artifacts().size(), 1u);
    EXPECT_TRUE(sink.artifacts()[0].ok);
    EXPECT_EQ(sink.artifacts()[0].bytes, 8u);
    EXPECT_EQ(sink.artifacts()[0].attempts, 1);
}

TEST(ArtifactSinkTest, DiskModeCreatesParentDirectories)
{
    const std::string root =
        ::testing::TempDir() + "capo_report_sink_test";
    ArtifactSink sink(root);
    ASSERT_TRUE(sink.writeTable("nested/dir/table.csv", smallTable(),
                                Format::Csv));
    std::ifstream in(root + "/nested/dir/table.csv");
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "workload,factor,completed,count");
}

TEST(ArtifactSinkTest, CertainFaultsQuarantineAfterRetries)
{
    fault::FaultPlan plan;
    plan.setRate(fault::Site::ArtifactIo, 1.0);

    ArtifactSink sink(".", ArtifactSink::Mode::Memory);
    sink.armFaults(plan, 1234);
    sink.setRetries(2);
    EXPECT_FALSE(sink.write("doomed.csv", [](std::ostream &out) {
        out << "payload";
    }));
    // Quarantine is recorded, never thrown: the payload simply did
    // not land.
    ASSERT_EQ(sink.quarantined().size(), 1u);
    EXPECT_EQ(sink.quarantined()[0].attempts, 3);  // 1 + 2 retries
    EXPECT_FALSE(sink.quarantined()[0].error.empty());
    EXPECT_EQ(sink.payload("doomed.csv"), "");
}

TEST(ArtifactSinkTest, FaultScheduleIsDeterministic)
{
    fault::FaultPlan plan;
    plan.setRate(fault::Site::ArtifactIo, 0.5);

    const auto run = [&plan](std::uint64_t seed) {
        ArtifactSink sink(".", ArtifactSink::Mode::Memory);
        sink.armFaults(plan, seed);
        sink.setRetries(1);
        std::vector<int> attempts;
        for (int i = 0; i < 16; ++i) {
            sink.write("artifact_" + std::to_string(i) + ".csv",
                       [](std::ostream &out) { out << "row\n"; });
            attempts.push_back(sink.artifacts().back().attempts);
        }
        return attempts;
    };

    // Same seed, same schedule — bit for bit; a different seed gives
    // a different schedule (with overwhelming probability at 32
    // opportunities).
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}

TEST(ArtifactSinkTest, ZeroRatePlanDisarms)
{
    fault::FaultPlan plan;
    plan.setRate(fault::Site::AllocOom, 1.0);  // other sites only

    ArtifactSink sink(".", ArtifactSink::Mode::Memory);
    sink.armFaults(plan, 7);
    EXPECT_TRUE(sink.write("fine.csv",
                           [](std::ostream &out) { out << "ok"; }));
    EXPECT_EQ(sink.artifacts().back().attempts, 1);
}

// ---------------------------------------------------------------------
// Experiment registry plumbing (experiments themselves are exercised
// by the golden tests, which link the registrations).

TEST(ExperimentRegistryTest, RunRegisteredParsesFlagsAndFillsStore)
{
    Experiment experiment;
    experiment.name = "registry_test_experiment";
    experiment.title = "Registry plumbing test";
    experiment.paper_ref = "none";
    experiment.description = "test-only experiment";
    experiment.quick_invocations = 2;
    experiment.quick_iterations = 4;
    experiment.add_flags = [](support::Flags &flags) {
        flags.addString("label", "default", "test flag");
    };
    experiment.run = [](ExperimentContext &context) {
        EXPECT_EQ(context.options.invocations, 2);
        EXPECT_EQ(context.options.iterations, 4);
        auto &table = context.store.table(
            "labels", Schema{{"label", Type::String}});
        table.addRow(
            {Value::str(context.flags.getString("label"))});
        context.artifacts.write("extra.txt", [](std::ostream &out) {
            out << "side artifact";
        });
        return 0;
    };

    ArtifactSink sink(".", ArtifactSink::Mode::Memory);
    ResultStore store;
    EXPECT_EQ(runRegistered(experiment, {"--label", "from-args"}, sink,
                            store),
              0);
    const ResultTable *table = store.find("labels");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->rowCount(), 1u);
    EXPECT_EQ(table->rows()[0][0].asString(), "from-args");
    EXPECT_EQ(sink.payload("extra.txt"), "side artifact");
}

TEST(ExperimentRegistryTest, RegistrarAddsAndListsSorted)
{
    // Register deliberately out of order: the `capo-bench list`
    // output must be name-sorted no matter what order the static
    // registrars ran in (link order is not a contract).
    for (const char *name : {"zz_registry_order_test",
                             "aa_registry_order_test",
                             "mm_registry_order_test"}) {
        Experiment e;
        e.name = name;
        e.run = [](ExperimentContext &) { return 0; };
        RegisterExperiment add{std::move(e)};
    }

    auto &registry = ExperimentRegistry::instance();
    EXPECT_NE(registry.find("zz_registry_order_test"), nullptr);
    EXPECT_NE(registry.find("aa_registry_order_test"), nullptr);
    EXPECT_EQ(registry.find("no_such_experiment"), nullptr);

    const auto all = registry.all();
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->name, all[i]->name);

    // The three out-of-order registrations appear, sorted, in one
    // pass over the listing.
    std::vector<std::string> ours;
    for (const auto *experiment : all) {
        if (experiment->name.find("_registry_order_test") !=
            std::string::npos)
            ours.push_back(experiment->name);
    }
    EXPECT_EQ(ours, (std::vector<std::string>{
                        "aa_registry_order_test",
                        "mm_registry_order_test",
                        "zz_registry_order_test"}));
}

} // namespace
} // namespace capo::report
