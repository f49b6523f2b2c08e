/**
 * @file
 * serve-mix: an open loop against serve::InferenceServer.
 *
 * One sender thread submits tiny:Swin, tiny:ViT and tiny:ResNext
 * round-robin on a fixed schedule and never waits for replies; the
 * calling thread collects every future in order.  Each request is
 * timed from the moment it was due, so a stalled sender charges its
 * delay to the requests behind it, and the sender's own lateness is
 * reported.  The run first holds the base rate, then climbs a ladder
 * of fixed rates until one fails kAttemptsPerRate times.
 */
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench.h"
#include "probe.h"
#include "exec/executor.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "serve/request.h"
#include "serve/server.h"

namespace smbench {

using namespace sm;

namespace {

const std::vector<std::string> kModels = {"Swin", "ViT", "ResNext"};

/** Offered rate of the latency metrics, requests/s. */
constexpr double kBaseRate = 400;

/**
 * Rates above the base, climbed until one fails kAttemptsPerRate
 * times.  The ladder
 * stops at 1200 req/s, well inside what the server sustains on a
 * shared 4-vCPU host even while other tenants slow it: capacity there
 * moves by a third with the host's load, and at 1600 req/s pass or
 * fail flipped from run to run.
 */
const std::vector<double> kLadder = {800, 1000, 1200};

/**
 * Attempts a rate gets before the climb stops.  One stall of the host
 * longer than the latency limit fails a level whatever the server
 * does; with one retry, one run in five still stopped a rung early.
 */
constexpr int kAttemptsPerRate = 3;

/** Share of --seconds spent at the base rate; the rest is split into
 *  kLadderSteps equal levels (three rates and room for one retry). */
constexpr double kBaseShare = 0.4;
constexpr double kLadderSteps = 4;

/** Latency limit on the tail percentile, ms. */
constexpr double kLimitMs = 50;

/** Served requests per level replayed through the reference. */
constexpr std::int64_t kVerifyPerLevel = 8;

/** compile_ms samples taken in each gap between levels. */
constexpr int kCompilesPerGap = 3;

/** Runs per tiny model for the traced exec.* timings. */
constexpr int kLayerReps = 5;

/** How long the collector waits on one future before calling it lost. */
constexpr auto kLostAfter = std::chrono::seconds(30);

std::string
servedName(const std::string &model)
{
    return "tiny:" + model;
}

const models::ModelRegistry &
servingRegistry()
{
    static const models::ModelRegistry *reg = [] {
        auto *r = new models::ModelRegistry();
        for (const std::string &name : kModels)
            r->add(std::make_unique<models::BuilderGraphSource>(
                servedName(name), [name](int batch) {
                    return models::buildTinyVariant(name, batch);
                }));
        return r;
    }();
    return *reg;
}

std::uint64_t
requestSalt(std::uint64_t seed, std::int64_t id)
{
    return inputSaltFor(seed) * 1000003 + static_cast<std::uint64_t>(id);
}

serve::InferenceRequest
makeRequest(std::uint64_t seed, std::int64_t id)
{
    serve::InferenceRequest r;
    r.model = servedName(kModels[static_cast<std::size_t>(id) %
                                 kModels.size()]);
    r.stage = 3;
    r.inputSalt = requestSalt(seed, id);
    return r;
}

/** A served request kept for replay through the reference executor. */
struct Sample
{
    std::int64_t id = 0;
    std::vector<exec::Tensor> outputs;
};

struct Level
{
    double rate = 0;
    std::int64_t sent = 0, served = 0, rejected = 0, failed = 0, lost = 0;
    std::vector<double> latencyMs, queueMs, execMs, lagMs;
    std::vector<double> batch;
    std::size_t backlog = 0; ///< queued requests when sending ended
    double spanS = 0;        ///< first due time to last completion

    std::int64_t bad() const { return rejected + failed + lost; }
    double tailQ() const { return tailQuantileFor(latencyMs.size()); }
    double tailMs() const { return quantile(latencyMs, tailQ()); }
    double achieved() const
    {
        return spanS > 0 ? static_cast<double>(served) / spanS : 0;
    }

    /** Meets the limit with nothing refused, and the backlog at the
     *  end is no more than the limit lets the rate queue (Little's
     *  law), so it is not growing. */
    bool passed() const
    {
        return bad() == 0 && tailQ() > 0 && tailMs() <= kLimitMs &&
               static_cast<double>(backlog) <= rate * kLimitMs / 1e3;
    }
};

struct Pending
{
    std::int64_t id = 0;
    Clock::time_point due, sent;
    std::future<serve::InferenceResponse> future;
};

Level
runLevel(serve::InferenceServer &server, double rate, double seconds,
         std::uint64_t seed, std::int64_t *nextId,
         std::vector<Sample> *samples, Tracer &tracer)
{
    Level lv;
    lv.rate = rate;
    const auto n = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(rate * seconds + 0.5));
    const std::int64_t firstId = *nextId;
    *nextId += n;
    // Every `every`-th request from a seeded offset is kept for replay.
    const std::int64_t every =
        std::max<std::int64_t>(1, n / kVerifyPerLevel);
    const auto offset = static_cast<std::int64_t>(
        seed % static_cast<std::uint64_t>(every));
    const auto interval = std::chrono::duration<double>(1.0 / rate);
    const int parent = Tracer::current();

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending; // guarded by mu
    bool done = false;           // guarded by mu
    bool senderFailed = false;   // guarded by mu
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);

    std::thread sender([&] {
        try {
            for (std::int64_t i = 0; i < n; ++i) {
                const Clock::time_point due =
                    start +
                    std::chrono::duration_cast<Clock::duration>(interval * i);
                std::this_thread::sleep_until(due);
                Pending p;
                p.id = firstId + i;
                p.due = due;
                p.sent = Clock::now();
                p.future = server.submit(makeRequest(seed, p.id));
                {
                    std::lock_guard<std::mutex> lock(mu);
                    pending.push_back(std::move(p));
                }
                cv.notify_one();
            }
            const std::size_t backlog = server.queueDepth();
            std::lock_guard<std::mutex> lock(mu);
            lv.backlog = backlog;
            done = true;
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            senderFailed = true;
            done = true;
        }
        cv.notify_one();
    });

    Clock::time_point lastDone = start;
    // The sender never waits on the collector, so joining it on an
    // exception path cannot block.
    try {
        for (;;) {
            Pending p;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return !pending.empty() || done; });
                if (pending.empty())
                    break;
                p = std::move(pending.front());
                pending.pop_front();
            }
            ++lv.sent;
            if (p.future.wait_for(kLostAfter) != std::future_status::ready) {
                ++lv.lost;
                continue;
            }
            serve::InferenceResponse r = p.future.get();
            if (r.status == serve::ResponseStatus::Rejected) {
                ++lv.rejected;
                continue;
            }
            if (!r.ok()) {
                ++lv.failed;
                continue;
            }
            ++lv.served;
            const double lagMs =
                std::chrono::duration<double, std::milli>(p.sent - p.due)
                    .count();
            const double latency = lagMs + r.totalMs;
            lv.lagMs.push_back(lagMs);
            lv.latencyMs.push_back(latency);
            lv.queueMs.push_back(r.queueMs);
            lv.execMs.push_back(r.execMs);
            lv.batch.push_back(r.batchSize);
            const auto toDur = [](double ms) {
                return std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
            };
            const Clock::time_point end = p.due + toDur(latency);
            lastDone = std::max(lastDone, end);
            if (tracer.enabled()) {
                const int req = tracer.record("serve.request", p.due, end,
                                              parent, p.id, 1);
                const Clock::time_point q1 = p.sent + toDur(r.queueMs);
                tracer.record("serve.queue", p.sent, q1, req, p.id, 1);
                tracer.record("serve.exec", q1, q1 + toDur(r.execMs), req,
                              p.id, 1);
            }
            if ((p.id - firstId) % every == offset)
                samples->push_back({p.id, std::move(r.outputs)});
        }
    } catch (...) {
        sender.join();
        throw;
    }
    sender.join();
    if (senderFailed) {
        std::fprintf(stderr, "smbench: the sender thread failed\n");
        lv.lost += n - lv.sent;
        lv.sent = n;
    }
    lv.spanS = std::chrono::duration<double>(lastDone - start).count();
    return lv;
}

/** Bursts of 1..maxBatch same-model requests, so the batch-k plans
 *  exist before timing.  Returns the requests that were not served. */
std::int64_t
warmup(serve::InferenceServer &server, std::uint64_t seed,
       std::int64_t *nextId, std::int64_t *sent)
{
    std::int64_t bad = 0;
    for (int k = 1; k <= server.options().maxBatch; ++k) {
        std::vector<std::future<serve::InferenceResponse>> futures;
        for (std::size_t m = 0; m < kModels.size(); ++m) {
            for (int i = 0; i < k; ++i) {
                // Ids congruent to m modulo the model count pick model m.
                const auto count = static_cast<std::int64_t>(kModels.size());
                const std::int64_t round =
                    (*nextId + count - 1) / count * count;
                futures.push_back(server.submit(
                    makeRequest(seed, round + static_cast<std::int64_t>(m))));
                *nextId = round + count;
            }
        }
        for (auto &f : futures)
            bad += f.get().ok() ? 0 : 1;
        *sent += static_cast<std::int64_t>(futures.size());
    }
    return bad;
}

serve::ServerOptions
serverOptions(std::uint64_t seed)
{
    serve::ServerOptions o;
    o.defaultDevice = kPlanDevice;
    o.workers = 2;
    o.executorThreads = 1;
    o.coalesce = true;
    o.seed = seed;
    // Overload must show as latency and backlog, not as refusals.
    o.queueCapacity = 1 << 16;
    o.models = &servingRegistry();
    return o;
}

} // namespace

void
runServeMix(RunContext &ctx)
{
    const Args &args = ctx.args;
    Tracer &tracer = ctx.tracer;
    const std::uint64_t seed = args.seed;
    std::int64_t nextId = 0;

    // Set-up, kSetupReps times: a cold server through its warm-up
    // requests.  The last server is kept for the timed levels.
    std::vector<double> setupS;
    LayerTotals layers;
    std::unique_ptr<serve::InferenceServer> server;
    HostProbe probe;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (server)
            server->shutdown(true);
        server.reset();
        {
            Tracer::Scope setup(tracer, "setup");
            server = std::make_unique<serve::InferenceServer>(
                serverOptions(seed));
            std::int64_t sent = 0;
            const std::int64_t bad = warmup(*server, seed, &nextId, &sent);
            ctx.outcome.addMany(sent, bad);
            setupS.push_back(setup.stop() / 1e3);
        }
        probe.run(tracer);
        // The per-step compile split of the three models, outside the
        // server.
        if (args.trace) {
            for (const std::string &m : kModels) {
                double buildMs = 0;
                ir::Graph raw;
                {
                    Tracer::Scope span(tracer, "models.build");
                    raw = models::buildTinyVariant(m, 1);
                    buildMs = span.stop();
                }
                CompileSplit split;
                compileSplit(raw, tracer, &split);
                layers.addSplit(split, buildMs,
                                static_cast<std::size_t>(rep));
            }
        }
    }
    std::vector<ir::Graph> raws;
    for (const std::string &m : kModels)
        raws.push_back(models::buildTinyVariant(m, 1));
    // compile_ms samples, each after a probe round, are taken before
    // and after every level, while the server is idle.
    std::vector<double> compileMs;
    auto sampleCompiles = [&] {
        for (int i = 0; i < kCompilesPerGap && !args.trace; ++i) {
            probe.run(tracer);
            compileMs.push_back(timeCompile(raws, tracer));
        }
    };

    // Timed levels: the base rate, then the ladder.  A failing rate
    // is retried, so a single stall cannot end the climb; the climb
    // stops at the first rate that fails kAttemptsPerRate times.
    std::vector<Level> levels;
    std::vector<Sample> samples;
    sampleCompiles();
    {
        Tracer::Scope span(tracer, "serve.level");
        levels.push_back(runLevel(*server, kBaseRate,
                                  args.seconds * kBaseShare, seed, &nextId,
                                  &samples, tracer));
    }
    sampleCompiles();
    const double stepS = args.seconds * (1 - kBaseShare) / kLadderSteps;
    for (double rate : kLadder) {
        bool passed = false;
        for (int attempt = 0; attempt < kAttemptsPerRate && !passed;
             ++attempt) {
            Tracer::Scope span(tracer, "serve.level");
            levels.push_back(runLevel(*server, rate, stepS, seed, &nextId,
                                      &samples, tracer));
            passed = levels.back().passed();
            sampleCompiles();
        }
        if (!passed)
            break;
    }
    const core::CompileStats cs = server->compileStats(kPlanDevice);
    const serve::StatsSnapshot snap = server->stats();
    server->shutdown(true);

    // Replay the sampled requests through the reference executor.
    std::int64_t mismatched = 0;
    {
        const exec::Executor reference(seed);
        for (const Sample &s : samples) {
            const serve::InferenceRequest req = makeRequest(seed, s.id);
            const ir::Graph &raw = raws[static_cast<std::size_t>(s.id) %
                                        kModels.size()];
            Tracer::Scope span(tracer, "exec.reference");
            const auto ref = reference.runOutputs(
                raw, serve::makeRequestInputs(raw, seed, req.inputSalt));
            layers.referenceTinyMs += span.stop();
            if (!outputsMatch(ref, s.outputs))
                ++mismatched;
        }
    }
    if (!samples.empty())
        layers.referenceTinyMs /= static_cast<double>(samples.size());

    std::int64_t rejected = 0;
    const Level *best = nullptr;
    std::vector<double> lag;
    std::printf("%-10s %8s %8s %9s %8s %10s %9s %8s %s\n", "offered/s",
                "sent", "served", "refused", "backlog", "achieved/s",
                "p50 ms", "tail ms", "passes");
    for (const Level &lv : levels) {
        ctx.outcome.addMany(lv.sent, lv.bad());
        rejected += lv.rejected;
        lag.insert(lag.end(), lv.lagMs.begin(), lv.lagMs.end());
        if (lv.passed())
            best = &lv; // levels run in ascending rate order
        std::printf("%-10.0f %8lld %8lld %9lld %8zu %10.1f %9.2f %8.2f "
                    "p%g %s\n",
                    lv.rate, static_cast<long long>(lv.sent),
                    static_cast<long long>(lv.served),
                    static_cast<long long>(lv.bad()), lv.backlog,
                    lv.achieved(), median(lv.latencyMs), lv.tailMs(),
                    lv.tailQ() * 100, lv.passed() ? "yes" : "no");
    }
    ctx.outcome.addMany(0, mismatched);
    const Level &base = levels.front();
    std::printf("verified %zu sampled responses against the reference "
                "executor: %lld mismatched\n",
                samples.size(), static_cast<long long>(mismatched));
    std::printf("serve_p50_ms %.3f  serve_p%g_ms %.3f (n=%zu)  "
                "serve_max_rps %.0f  failed_frac %.6f\n",
                median(base.latencyMs), base.tailQ() * 100, base.tailMs(),
                base.latencyMs.size(), best ? best->rate : 0.0,
                ctx.outcome.failedFrac());

    Report &r = ctx.report;
    const auto nBase = static_cast<std::int64_t>(base.latencyMs.size());
    if (!args.trace) {
        // compile_ms and setup_s at the probe's reference host speed
        // (probe.h), by the lane scale: a CPU time, and a warm-up on
        // one-thread workers.  The served rate is the offered ladder's
        // and the base-rate median is set by the coalescing deadline,
        // neither by host speed, so they stay as measured.
        const double scale = probe.laneScale();
        std::printf("measured: compile %.2f ms CPU, setup %.3f s\n",
                    median(compileMs), median(setupS));
        printScales(probe);
        r.set("infer_per_s", best ? best->achieved() : 0,
              best ? best->served : 0);
        r.set("infer_ms_p50", median(base.latencyMs), nBase);
        r.set("compile_ms", median(compileMs) * scale,
              static_cast<std::int64_t>(compileMs.size()));
        r.set("setup_s", median(setupS) * scale,
              static_cast<std::int64_t>(setupS.size()));
        r.set("peak_rss_mb", peakRssMb());
        return;
    }

    // Per-layer: the three tiny models' plans, then the server.
    double runMs = 0;
    for (const std::string &m : kModels) {
        const ir::Graph raw = models::buildTinyVariant(m, 1);
        CompileSplit split;
        const runtime::ExecutionPlan plan = compileSplit(raw, tracer, &split);
        ctx.outcome.add(splitMatchesShipped(raw, plan, tracer));
        const exec::CpuBackend backend(backendOptions(1, seed));
        const auto inputs =
            serve::makeRequestInputs(plan.graph, seed, inputSaltFor(seed));
        std::vector<double> ms;
        exec::CpuBackendStats stats;
        for (int i = 0; i < kLayerReps; ++i) {
            double t = 0;
            runPlan(backend, plan, inputs, tracer, &t, &stats);
            ms.push_back(t);
        }
        layers.addExecStats(stats);
        runMs += median(ms);
        measurePlanLayers(raw, plan, 1, seed, median(ms), kLayerReps, tracer,
                          &layers);
    }
    layers.write(r);
    r.set("exec.run_ms", runMs, kLayerReps);

    double coalesced = 0;
    for (double b : base.batch)
        coalesced += b > 1 ? 1 : 0;
    const double tailQ = tailQuantileFor(base.queueMs.size());
    r.set("serve.p99_ms", base.tailMs(), nBase);
    r.set("serve.max_rps", best ? best->rate : 0);
    r.set("serve.queue_ms_p50", median(base.queueMs), nBase);
    r.set("serve.queue_ms_p99", quantile(base.queueMs, tailQ), nBase);
    r.set("serve.exec_ms_p50", median(base.execMs), nBase);
    r.set("serve.batch_mean",
          nBase ? std::accumulate(base.batch.begin(), base.batch.end(), 0.0) /
                      static_cast<double>(nBase)
                : 0,
          nBase);
    r.set("serve.coalesced_frac",
          nBase ? coalesced / static_cast<double>(nBase) : 0, nBase);
    r.set("serve.queue_high_water",
          static_cast<double>(snap.queueHighWater));
    r.set("serve.rejected", static_cast<double>(rejected));
    r.set("core.session_hits", static_cast<double>(cs.cacheHits));
    r.set("core.shared_compiles", static_cast<double>(cs.sharedCompiles));
    r.set("loadgen.lag_ms_p99", quantile(lag, tailQuantileFor(lag.size())),
          static_cast<std::int64_t>(lag.size()));
    r.set("host.probe_ms", median(probe.rounds()),
          static_cast<std::int64_t>(probe.rounds().size()));
}

} // namespace smbench
