/**
 * @file
 * Bitwise trace-sink comparison shared by the determinism suites: two
 * sinks match when every track has the same name and the same events
 * (name, timestamp, value, category, kind) in the same order, and
 * their counter-summary tables are identical.
 */

#ifndef CAPO_TESTS_TESTUTIL_SINKS_HH
#define CAPO_TESTS_TESTUTIL_SINKS_HH

#include <gtest/gtest.h>

#include "trace/sampler.hh"
#include "trace/sink.hh"

namespace capo::testutil {

inline void
expectSinksIdentical(const trace::TraceSink &a, const trace::TraceSink &b)
{
    ASSERT_EQ(a.trackCount(), b.trackCount());
    for (trace::TrackId t = 0; t < a.trackCount(); ++t) {
        EXPECT_EQ(a.trackName(t), b.trackName(t));
        const auto ea = a.events(t);
        const auto eb = b.events(t);
        ASSERT_EQ(ea.size(), eb.size()) << "track " << a.trackName(t);
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_STREQ(ea[i].name, eb[i].name);
            EXPECT_EQ(ea[i].ts, eb[i].ts);
            EXPECT_EQ(ea[i].value, eb[i].value);
            EXPECT_EQ(ea[i].cat, eb[i].cat);
            EXPECT_EQ(ea[i].kind, eb[i].kind);
        }
    }
    EXPECT_TRUE(trace::counterSummaryTable(a).identical(
        trace::counterSummaryTable(b)));
}

} // namespace capo::testutil

#endif // CAPO_TESTS_TESTUTIL_SINKS_HH
