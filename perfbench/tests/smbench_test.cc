/**
 * @file
 * Tests of the benchmark's own logic: the percentile rule, span self
 * times, failure accounting, the host-speed scale and the metric
 * name/unit schema.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"
#include "report.h"
#include "trace.h"

using namespace smbench;

namespace {

std::vector<double>
ramp(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

Span
span(int id, int parent, double start, double end,
     const std::string &name)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.startMs = start;
    s.endMs = end;
    s.name = name;
    return s;
}

/** (name, unit) pairs of one BENCHMARK.json section. */
std::set<std::pair<std::string, std::string>>
benchmarkJsonMetrics(const std::string &section)
{
    std::ifstream in(SMBENCH_JSON);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto at = text.find("\"" + section + "\"");
    EXPECT_NE(at, std::string::npos) << section;
    const auto end = text.find(']', at);
    const std::string body = text.substr(at, end - at);
    std::set<std::pair<std::string, std::string>> out;
    const std::regex entry(
        "\"name\"\\s*:\\s*\"([^\"]+)\"\\s*,\\s*\"unit\"\\s*:\\s*\"([^\"]+)\"");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
         it != std::sregex_iterator(); ++it)
        out.insert({(*it)[1], (*it)[2]});
    return out;
}

std::set<std::pair<std::string, std::string>>
schemaMetrics(bool endToEnd)
{
    std::set<std::pair<std::string, std::string>> out;
    for (const MetricSpec &m : metricSchema())
        if (m.endToEnd == endToEnd)
            out.insert({m.name, m.unit});
    return out;
}

} // namespace

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(tailQuantileFor(0), 0);
    EXPECT_EQ(tailQuantileFor(19), 0);   // median has 9 beyond
    EXPECT_EQ(tailQuantileFor(20), 0.5); // median has 10 beyond
    EXPECT_EQ(tailQuantileFor(99), 0.5); // p90 has 9 beyond
    EXPECT_EQ(tailQuantileFor(100), 0.9);
    EXPECT_EQ(tailQuantileFor(999), 0.9);
    EXPECT_EQ(tailQuantileFor(1000), 0.99);
    EXPECT_EQ(tailQuantileFor(9999), 0.99);
    EXPECT_EQ(tailQuantileFor(10000), 0.999);
}

TEST(Percentile, NearestRankAndMedian)
{
    const std::vector<double> v = ramp(100);
    EXPECT_EQ(quantile(v, 0.9), 90);
    EXPECT_EQ(quantile(v, 0.99), 99);
    EXPECT_EQ(quantile(v, 0.5), 50);
    EXPECT_EQ(quantile(ramp(1000), 0.99), 990);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(HostScale, ReferenceOverMedianProbe)
{
    // A host running the probe at half the reference speed doubles
    // every time, so the scale halves it back; outliers do not count.
    EXPECT_DOUBLE_EQ(hostScale(10, {20, 20, 90}), 0.5);
    EXPECT_DOUBLE_EQ(hostScale(10, {10}), 1.0);
    EXPECT_DOUBLE_EQ(hostScale(10, {}), 1.0);

    HostProbe probe;
    Tracer tracer(false);
    EXPECT_GE(probe.threads(), 1);
    EXPECT_DOUBLE_EQ(probe.roundScale(), 1.0);
    EXPECT_DOUBLE_EQ(probe.laneScale(), 1.0);
    const double ms = probe.run(tracer);
    ASSERT_EQ(probe.rounds().size(), 1u);
    ASSERT_EQ(probe.lanes().size(), 1u);
    EXPECT_EQ(probe.rounds()[0], ms);
    // A lane's CPU time fits inside the round's wall time.
    EXPECT_GT(probe.lanes()[0], 0);
    EXPECT_LE(probe.lanes()[0], ms);
    EXPECT_DOUBLE_EQ(probe.roundScale(), kRoundRefMs / ms);
    EXPECT_DOUBLE_EQ(probe.laneScale(), kLaneRefMs / probe.lanes()[0]);
}

TEST(SelfTime, SubtractsChildCoverage)
{
    // root [0,100] with children [10,30] and [20,50] (overlapping:
    // union 40 ms) and one grandchild [12,18] inside the first child.
    const std::vector<Span> spans = {
        span(0, -1, 0, 100, "root"), span(1, 0, 10, 30, "a"),
        span(2, 0, 20, 50, "b"), span(3, 1, 12, 18, "c")};
    const auto self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self.at("root").selfMs, 60);
    EXPECT_DOUBLE_EQ(self.at("a").selfMs, 14);
    EXPECT_DOUBLE_EQ(self.at("b").selfMs, 30);
    EXPECT_DOUBLE_EQ(self.at("c").selfMs, 6);
    EXPECT_DOUBLE_EQ(self.at("root").totalMs, 100);
}

TEST(SelfTime, ClipsChildrenToParentAndAggregatesByName)
{
    const std::vector<Span> spans = {
        span(0, -1, 0, 10, "run"), span(1, 0, 8, 15, "late"),
        span(2, -1, 20, 30, "run")};
    const auto self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self.at("run").selfMs, 8 + 10);
    EXPECT_EQ(self.at("run").count, 2);
}

TEST(SelfTime, NestedScopesRecordParents)
{
    Tracer t(true);
    {
        Tracer::Scope outer(t, "outer");
        Tracer::Scope inner(t, "inner");
    }
    const auto spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(Tracer::current(), -1);

    Tracer off(false);
    Tracer::Scope s(off, "x");
    EXPECT_GE(s.stop(), 0);
    EXPECT_TRUE(off.spans().empty());
}

TEST(Outcome, FailedFracCountsEveryFailure)
{
    Outcome o;
    EXPECT_FALSE(o.correct()); // nothing attempted is not a pass
    o.add(true);
    o.add(true);
    o.addMany(6, 0);
    EXPECT_TRUE(o.correct());
    EXPECT_EQ(o.failedFrac(), 0);
    o.add(false);      // a mismatched inference
    o.addMany(0, 1);   // a mismatch found when replaying a served one
    o.addMany(10, 2);  // rejected or lost requests
    EXPECT_EQ(o.attempted, 19);
    EXPECT_EQ(o.failed, 4);
    EXPECT_DOUBLE_EQ(o.failedFrac(), 4.0 / 19.0);
    EXPECT_FALSE(o.correct());
}

TEST(Schema, MatchesBenchmarkJson)
{
    EXPECT_EQ(benchmarkJsonMetrics("end_to_end"), schemaMetrics(true));
    EXPECT_EQ(benchmarkJsonMetrics("per_layer"), schemaMetrics(false));
}

TEST(Schema, JsonLinePrintsEveryMetricWithUnit)
{
    Report r;
    Outcome o;
    o.add(true);
    for (const MetricSpec &m : metricSchema())
        if (m.endToEnd)
            r.set(m.name, 1.25, 3);
    const std::string line = r.json(true, o);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 1, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u);
    for (const MetricSpec &m : metricSchema()) {
        const std::string item = std::string("\"") + m.name +
                                 "\": {\"value\": 1.25, \"unit\": \"" +
                                 m.unit + "\"}";
        EXPECT_EQ(line.find(item) != std::string::npos, m.endToEnd)
            << m.name;
    }
    EXPECT_TRUE(r.missing(true).empty());
    EXPECT_FALSE(r.missing(false).empty());
    // A missing metric makes the run incorrect.
    EXPECT_NE(r.json(false, o).find("\"correct\": false"),
              std::string::npos);
    EXPECT_THROW(r.set("no.such_metric", 1), std::invalid_argument);
}
