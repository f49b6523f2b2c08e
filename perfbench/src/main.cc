/**
 * @file
 * smbench: the repository benchmark.
 *
 *   smbench --workload swin-1t|resnext-4t|serve-mix --seed N
 *           --seconds S --trace 0|1 [--ref-dir DIR] [--trace-out FILE]
 *   smbench --record-refs [--ref-dir DIR]
 *
 * An untraced run prints the end-to-end metrics, a traced run the
 * per-layer ones; both end with one JSON line (report.h).  The exit
 * code is non-zero when any operation failed or any output check
 * mismatched.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

using namespace smbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "smbench: %s\n"
                 "usage: smbench --workload swin-1t|resnext-4t|serve-mix "
                 "--seed N --seconds S --trace 0|1\n"
                 "               [--ref-dir DIR] [--trace-out FILE]\n"
                 "       smbench --record-refs [--ref-dir DIR]\n",
                 why);
    std::exit(2);
}

double
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || v < 0)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record-refs") {
            a.recordRefs = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = static_cast<std::uint64_t>(parseNumber("--seed", v));
        else if (flag == "--seconds")
            a.seconds = parseNumber("--seconds", v);
        else if (flag == "--trace")
            a.trace = parseNumber("--trace", v) != 0;
        else if (flag == "--ref-dir")
            a.refDir = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!a.recordRefs && a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Cost of one recorded span, ms, measured on a scratch tracer. */
double
spanCostMs()
{
    constexpr int kSpans = 20000;
    Tracer scratch(true);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        Tracer::Scope span(scratch, "probe");
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
               .count() /
           kSpans;
}

void
runWorkload(RunContext &ctx)
{
    const std::string &w = ctx.args.workload;
    if (w == "swin-1t")
        runClosedLoop(ctx, "Swin", 1);
    else if (w == "resnext-4t")
        runClosedLoop(ctx, "ResNext", 4);
    else if (w == "serve-mix")
        runServeMix(ctx);
    else
        usage(("unknown workload '" + w +
               "' (known: swin-1t, resnext-4t, serve-mix)")
                  .c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.recordRefs)
        return recordReferences(args.refDir);

    Tracer tracer(args.trace);
    Report report;
    Outcome outcome;
    RunContext ctx{args, tracer, report, outcome};
    double wallMs = 0;
    try {
        Tracer::Scope root(tracer, "workload");
        runWorkload(ctx);
        wallMs = root.stop();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "smbench: %s\n", e.what());
        outcome.add(false);
    }

    if (args.trace) {
        // Self times: the part of the run each layer's spans account
        // for once their children are subtracted.
        const std::vector<Span> spans = tracer.spans();
        const auto self = selfTimes(spans);
        std::printf("%-22s %10s %12s %12s\n", "span", "count", "self ms",
                    "total ms");
        for (const auto &[name, t] : self)
            std::printf("%-22s %10lld %12.2f %12.2f\n", name.c_str(),
                        static_cast<long long>(t.count), t.selfMs,
                        t.totalMs);
        // The root's own self time is the part of the run no layer
        // span accounts for.
        auto root = self.find("workload");
        if (wallMs > 0 && root != self.end()) {
            report.set("trace.coverage_pct",
                       100.0 * (wallMs - root->second.selfMs) / wallMs);
            report.set("trace.overhead_pct",
                       100.0 * static_cast<double>(spans.size()) *
                           spanCostMs() / wallMs,
                       static_cast<std::int64_t>(spans.size()));
        }
        if (!args.traceOut.empty() && !tracer.writeChrome(args.traceOut))
            std::fprintf(stderr, "smbench: cannot write %s\n",
                         args.traceOut.c_str());
    }

    const bool endToEnd = !args.trace;
    std::printf("%s seed %llu: %lld operations, %lld failed "
                "(failed_frac %.6f)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.failed),
                outcome.failedFrac());
    std::fputs(report.table(endToEnd).c_str(), stdout);
    for (const std::string &name : report.missing(endToEnd))
        std::fprintf(stderr, "smbench: metric %s was not measured\n",
                     name.c_str());
    std::printf("%s\n", report.json(endToEnd, outcome).c_str());
    std::fflush(stdout);
    return outcome.correct() && report.missing(endToEnd).empty() ? 0 : 1;
}
