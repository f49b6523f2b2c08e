/**
 * @file
 * Closed-loop workloads (swin-1t, resnext-4t): one caller runs one
 * full-size model at batch 1 on the cpu-blocked backend, starting the
 * next inference when the previous one returns.
 */
#include <sched.h>

#include <cstdio>
#include <memory>

#include "bench.h"
#include "models/models.h"
#include "probe.h"
#include "serve/request.h"

namespace smbench {

using namespace sm;

namespace {

/** Fewest timed inferences per run, whatever --seconds says. */
constexpr std::size_t kMinIterations = 3;

/** Runs for the stage-0 and other-thread-count timings of a traced run. */
constexpr int kLayerReps = 2;

/**
 * Pins the calling thread to each CPU it may run on in turn, one CPU
 * per next(); restore() (or the destructor) gives back its original
 * affinity.
 *
 * A single-thread closed loop pins its caller for each inference.  On
 * a VM whose vCPUs share host cores with other tenants, one vCPU can
 * run a third slower than the others for tens of seconds, and the
 * guest scheduler, which cannot see that, leaves a lone busy thread
 * where it is: whole runs came out a third slower.  Moving the caller
 * spreads the samples over all CPUs.  Only the inference is pinned:
 * threads created meanwhile (the compile pool, the probe) would
 * inherit the one-CPU mask.  A multi-thread run is not pinned at all,
 * since pinning its caller crowds the pool workers woken beside it.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
    }
    ~CpuRotation() { restore(); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[step_++ % cpus_.size()], &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    }

    void restore()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof original_, &original_);
        pinned_ = false;
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t step_ = 0;
    bool pinned_ = false;
};

/** Serving metrics have no meaning without a server: report 0. */
void
writeNoServe(Report &r)
{
    for (const char *name :
         {"serve.p99_ms", "serve.max_rps", "serve.queue_ms_p50",
          "serve.queue_ms_p99", "serve.exec_ms_p50", "serve.batch_mean",
          "serve.coalesced_frac", "serve.queue_high_water",
          "serve.rejected", "core.session_hits", "core.shared_compiles",
          "loadgen.lag_ms_p99"})
        r.set(name, 0, 0);
}

} // namespace

void
runClosedLoop(RunContext &ctx, const std::string &model, int threads)
{
    const Args &args = ctx.args;
    Tracer &tracer = ctx.tracer;
    const std::uint64_t seed = args.seed;

    // Set-up, kSetupReps times: build, cold compile, backend, inputs
    // and one warm-up inference.  The last set-up is kept for timing.
    std::vector<double> setupS;
    LayerTotals layers;
    ir::Graph raw;
    runtime::ExecutionPlan plan;
    std::unique_ptr<exec::CpuBackend> backend;
    std::map<ir::ValueId, exec::Tensor> inputs;
    std::vector<exec::Tensor> warm;
    exec::CpuBackendStats warmStats;
    CpuRotation rotation;
    HostProbe probe;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        backend.reset();
        plan = runtime::ExecutionPlan();
        inputs.clear();
        warm.clear();

        Tracer::Scope setup(tracer, "setup");
        double buildMs = 0;
        {
            Tracer::Scope span(tracer, "models.build");
            raw = models::buildModel(model, 1);
            buildMs = span.stop();
        }
        if (args.trace) {
            CompileSplit split;
            plan = compileSplit(raw, tracer, &split);
            layers.addSplit(split, buildMs, static_cast<std::size_t>(rep));
        } else {
            plan = compileShipped(raw, tracer);
        }
        backend = std::make_unique<exec::CpuBackend>(
            backendOptions(threads, seed));
        inputs = serve::makeRequestInputs(plan.graph, seed,
                                          inputSaltFor(seed));
        if (threads == 1)
            rotation.next();
        warm = runPlan(*backend, plan, inputs, tracer, nullptr, &warmStats);
        rotation.restore();
        setupS.push_back(setup.stop() / 1e3);
        probe.run(tracer);
    }

    // Timed window: every inference must reproduce the warm-up bytes.
    // A probe round precedes each inference, and an untraced run takes
    // one compile_ms sample after it; the window counts inference time
    // only.
    const std::vector<ir::Graph> raws = {raw};
    std::vector<double> latencyMs, compileMs;
    std::int64_t mismatches = 0;
    double windowS = 0;
    {
        Tracer::Scope span(tracer, "closed_loop");
        while (latencyMs.size() < kMinIterations ||
               windowS < args.seconds) {
            probe.run(tracer);
            if (threads == 1)
                rotation.next();
            const auto start = Clock::now();
            double ms = 0;
            const auto got = runPlan(*backend, plan, inputs, tracer, &ms);
            rotation.restore();
            latencyMs.push_back(ms);
            const bool same = outputsIdentical(warm, got);
            ctx.outcome.add(same);
            mismatches += same ? 0 : 1;
            windowS +=
                std::chrono::duration<double>(Clock::now() - start).count();
            if (!args.trace)
                compileMs.push_back(timeCompile(raws, tracer));
        }
    }
    if (mismatches)
        std::fprintf(stderr,
                     "smbench: %lld timed inferences differ from the "
                     "warm-up output\n",
                     static_cast<long long>(mismatches));

    // Output checks against the reference executor.
    ctx.outcome.add(checkTinyVariant(model, threads, seed, tracer,
                                     &layers.referenceTinyMs));
    ctx.outcome.add(checkFullSize(model, plan, threads, args.refDir,
                                  tracer));

    const auto n = static_cast<std::int64_t>(latencyMs.size());
    const double p50 = median(latencyMs);
    const double tailQ = tailQuantileFor(latencyMs.size());
    std::printf("%s batch 1, %d thread(s): %lld inferences in %.2f s, "
                "p50 %.2f ms",
                model.c_str(), threads, static_cast<long long>(n), windowS,
                p50);
    if (tailQ > 0.5)
        std::printf(", p%g %.2f ms\n", tailQ * 100,
                    quantile(latencyMs, tailQ));
    else
        std::printf(" (too few samples for a tail percentile)\n");

    Report &r = ctx.report;
    if (!args.trace) {
        // Timings at the probe's reference host speed (probe.h): the
        // compile's CPU time by the lane scale, and the inference and
        // set-up by the scale of their own threading.  One caller runs
        // one inference at a time, so the loop's throughput is the
        // inverse of the time per inference; the median keeps a burst
        // of host contention out of it.
        const double scale =
            threads == 1 ? probe.laneScale() : probe.roundScale();
        std::printf("measured: compile %.2f ms CPU, setup %.3f s\n",
                    median(compileMs), median(setupS));
        printScales(probe);
        r.set("infer_per_s", 1e3 / (p50 * scale), n);
        r.set("infer_ms_p50", p50 * scale, n);
        r.set("compile_ms", median(compileMs) * probe.laneScale(),
              static_cast<std::int64_t>(compileMs.size()));
        r.set("setup_s", median(setupS) * scale,
              static_cast<std::int64_t>(setupS.size()));
        r.set("peak_rss_mb", peakRssMb());
        return;
    }

    if (!splitMatchesShipped(raw, plan, tracer)) {
        std::fprintf(stderr, "smbench: split compile of %s differs from "
                             "compileStage(g, dev, 3)\n",
                     model.c_str());
        ctx.outcome.add(false);
    } else {
        ctx.outcome.add(true);
    }
    layers.addExecStats(warmStats);
    measurePlanLayers(raw, plan, threads, seed, p50, kLayerReps, tracer,
                      &layers);
    layers.write(r);
    r.set("exec.run_ms", p50, n);
    r.set("host.probe_ms", median(probe.rounds()),
          static_cast<std::int64_t>(probe.rounds().size()));
    writeNoServe(r);
}

} // namespace smbench
