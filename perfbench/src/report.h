/**
 * @file
 * Metric schema, percentile rule, operation accounting and the
 * one-line JSON result of the benchmark.
 *
 * Every metric the benchmark can print is listed once in
 * metricSchema(), with its unit and whether it is an end-to-end
 * metric (printed by untraced runs) or a per-layer one (printed by
 * traced runs).  BENCHMARK.json names the same metrics; the tests pin
 * the two together.
 */
#ifndef SMBENCH_REPORT_H
#define SMBENCH_REPORT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace smbench {

/** One metric the benchmark reports. */
struct MetricSpec
{
    const char *name;
    const char *unit;
    bool endToEnd; ///< true: untraced run; false: traced run
};

/** Every metric, end-to-end first, in print order. */
const std::vector<MetricSpec> &metricSchema();

/** Median of `v` (mean of the two middle values for even sizes);
 *  0 for an empty vector. */
double median(std::vector<double> v);

/** Nearest-rank quantile: the sorted value at rank ceil(q * n). */
double quantile(std::vector<double> v, double q);

/**
 * The percentile rule: the highest of p50, p90, p99 and p99.9 that
 * has at least 10 samples beyond it (n - ceil(q * n) >= 10).  Returns
 * that q, or 0 when even the median has fewer than 10 samples beyond
 * it.
 */
double tailQuantileFor(std::size_t n);

/** Attempted and failed operations of one run.  Every timed
 *  iteration, served request and output check is one operation; a
 *  failed, rejected, lost or mismatched one counts as failed. */
struct Outcome
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void add(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    void addMany(std::int64_t n, std::int64_t bad)
    {
        attempted += n;
        failed += bad;
    }

    double failedFrac() const
    {
        return attempted > 0
            ? static_cast<double>(failed) / static_cast<double>(attempted)
            : 1.0;
    }

    bool correct() const { return attempted > 0 && failed == 0; }
};

/** Metric values of one run, keyed by schema name. */
class Report
{
  public:
    /** Record a metric; `samples` is the count it was computed from.
     *  Throws std::invalid_argument for a name not in the schema. */
    void set(const std::string &name, double value,
             std::int64_t samples = 1);

    /** Schema names of the given kind that were never set. */
    std::vector<std::string> missing(bool endToEnd) const;

    /** Human-readable table of the given kind: name, value, unit, n. */
    std::string table(bool endToEnd) const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"},
     * with every metric of the given kind as {"value", "unit"}.  A
     * missing or non-finite metric makes the run incorrect.
     */
    std::string json(bool endToEnd, const Outcome &outcome) const;

  private:
    bool has(const std::string &name) const;

    struct Entry
    {
        double value = 0;
        std::int64_t samples = 0;
    };
    std::map<std::string, Entry> values_;
};

} // namespace smbench

#endif // SMBENCH_REPORT_H
