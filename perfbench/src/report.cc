#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace smbench {

const std::vector<MetricSpec> &
metricSchema()
{
    static const std::vector<MetricSpec> schema = {
        // End-to-end, printed by untraced runs.
        {"infer_per_s", "1/s", true},
        {"infer_ms_p50", "ms", true},
        {"compile_ms", "ms", true},
        {"setup_s", "s", true},
        {"peak_rss_mb", "MiB", true},
        // Per-layer, printed by traced runs; keyed by module.
        {"models.build_ms", "ms", false},
        {"opt.canonicalize_ms", "ms", false},
        {"opt.ops_before", "count", false},
        {"opt.ops_after", "count", false},
        {"opt.attention_fused", "count", false},
        {"core.plan_ms", "ms", false},
        {"core.layout_select_ms", "ms", false},
        {"core.tune_ms", "ms", false},
        {"core.kernels", "count", false},
        {"core.lte_gain", "x", false},
        {"core.session_hits", "count", false},
        {"core.shared_compiles", "count", false},
        {"exec.run_ms", "ms", false},
        {"exec.gathers", "count", false},
        {"exec.relayout_mb", "MiB", false},
        {"exec.attn_kernels", "count", false},
        {"exec.score_mb_avoided", "MiB", false},
        {"exec.weights_ms", "ms", false},
        {"exec.weights_mb", "MiB", false},
        {"exec.run_1t_over_4t", "x", false},
        {"exec.epilogue_ops", "count", false},
        {"exec.native_views", "count", false},
        {"exec.native_stores", "count", false},
        {"exec.reference_tiny_ms", "ms", false},
        {"runtime.pool_peak_mb", "MiB", false},
        {"runtime.pool_reuses", "count", false},
        {"cost.gmacs", "GMAC", false},
        {"cost.bytes_moved_mb", "MiB", false},
        {"cost.achieved_gflops", "GFLOP/s", false},
        {"serve.p99_ms", "ms", false},
        {"serve.max_rps", "1/s", false},
        {"serve.queue_ms_p50", "ms", false},
        {"serve.queue_ms_p99", "ms", false},
        {"serve.exec_ms_p50", "ms", false},
        {"serve.batch_mean", "requests", false},
        {"serve.coalesced_frac", "ratio", false},
        {"serve.queue_high_water", "count", false},
        {"serve.rejected", "count", false},
        {"loadgen.lag_ms_p99", "ms", false},
        {"host.probe_ms", "ms", false},
        {"trace.overhead_pct", "%", false},
        {"trace.coverage_pct", "%", false},
    };
    return schema;
}

namespace {

const MetricSpec *
findSpec(const std::string &name)
{
    for (const MetricSpec &m : metricSchema())
        if (name == m.name)
            return &m;
    return nullptr;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size()) - 1e-9));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
tailQuantileFor(std::size_t n)
{
    static const double qs[] = {0.999, 0.99, 0.9, 0.5};
    for (double q : qs) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n) - 1e-9));
        if (n >= rank + 10)
            return q;
    }
    return 0;
}

void
Report::set(const std::string &name, double value, std::int64_t samples)
{
    if (!findSpec(name))
        throw std::invalid_argument("metric not in schema: " + name);
    values_[name] = {value, samples};
}

bool
Report::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::vector<std::string>
Report::missing(bool endToEnd) const
{
    std::vector<std::string> out;
    for (const MetricSpec &m : metricSchema())
        if (m.endToEnd == endToEnd && !has(m.name))
            out.push_back(m.name);
    return out;
}

std::string
Report::table(bool endToEnd) const
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%-24s %16s  %-8s %8s\n", "metric",
                  "value", "unit", "n");
    out += line;
    for (const MetricSpec &m : metricSchema()) {
        if (m.endToEnd != endToEnd)
            continue;
        auto it = values_.find(m.name);
        if (it == values_.end()) {
            std::snprintf(line, sizeof line, "%-24s %16s  %-8s %8s\n",
                          m.name, "missing", m.unit, "-");
        } else {
            std::snprintf(line, sizeof line,
                          "%-24s %16.4f  %-8s %8lld\n", m.name,
                          it->second.value, m.unit,
                          static_cast<long long>(it->second.samples));
        }
        out += line;
    }
    return out;
}

std::string
Report::json(bool endToEnd, const Outcome &outcome) const
{
    bool complete = true;
    std::string metrics;
    char buf[96];
    for (const MetricSpec &m : metricSchema()) {
        if (m.endToEnd != endToEnd)
            continue;
        auto it = values_.find(m.name);
        double v = it == values_.end() ? 0 : it->second.value;
        if (it == values_.end() || !std::isfinite(v)) {
            complete = false;
            v = 0;
        }
        if (!metrics.empty())
            metrics += ", ";
        std::snprintf(buf, sizeof buf, "%.17g", v);
        metrics += std::string("\"") + m.name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = outcome.correct() && complete;
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(outcome.attempted) +
           ", \"failed\": " + std::to_string(outcome.failed) +
           ", \"metrics\": {" + metrics + "}}";
}

} // namespace smbench
