/**
 * @file
 * Differential-execution harness for the graph pass pipeline
 * (src/opt, docs/PASSES.md): every registered pass, applied in
 * pipeline order over every zoo model (tiny variants, batch {1, 4}),
 * must preserve execution exactly.  Pre- and post-pass graphs are
 * planned at stage 0 (DNNFusion-style fusion, FusedTexture layouts)
 * and stage 3 (SmartMem layout selection) and run through both
 * registered backends ("reference", "cpu-blocked"); outputs must
 * agree with the unoptimized functional reference within 1e-4
 * relative tolerance.
 *
 * Plans here are built directly with core::planGraph +
 * core::assignLayouts rather than core::compileStage: compileStage
 * canonicalizes internally, which would re-run the very pipeline
 * under test and erase the pre/post distinction.
 *
 * The harness also pins the two pipeline contracts that execution
 * alone cannot see: a pass with nothing to do keeps the graph's
 * serialize::graphSignature() byte-stable (the plan-cache key
 * contract), and folded constants are derived-recipe encoded, so
 * parity holds under *every* executor seed, not just the default.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/layout_select.h"
#include "core/planner.h"
#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "exec/executor.h"
#include "models/models.h"
#include "opt/pass.h"
#include "runtime/plan_executor.h"
#include "serialize/plan_text.h"

namespace smartmem {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr float kTolerance = 1e-4f;

/** Inputs keyed by name so they survive the id renumbering every
 *  rewrite performs.  Salted 100+i by position, matching
 *  exec::makeSeededInputs. */
std::map<std::string, exec::Tensor>
seededInputsByName(const ir::Graph &graph, const exec::Executor &ex)
{
    std::map<std::string, exec::Tensor> out;
    std::uint64_t i = 0;
    for (ir::ValueId id : graph.inputIds()) {
        const ir::Value &v = graph.value(id);
        out[v.name] = ex.randomTensor(v.shape, 100 + i);
        ++i;
    }
    return out;
}

std::map<ir::ValueId, exec::Tensor>
remapInputs(const ir::Graph &graph,
            const std::map<std::string, exec::Tensor> &by_name)
{
    std::map<ir::ValueId, exec::Tensor> out;
    for (ir::ValueId id : graph.inputIds()) {
        auto it = by_name.find(graph.value(id).name);
        if (it == by_name.end())
            ADD_FAILURE() << "rewrite dropped input " << graph.value(id).name;
        else
            out[id] = it->second;
    }
    return out;
}

/** Stage 0 = DNNFusion-style fusion with fixed texture layouts;
 *  stage 3 = transform elimination + SmartMem layout selection.  The
 *  tuner only permutes launch configurations, so it is skipped. */
runtime::ExecutionPlan
makeStagePlan(const ir::Graph &graph, int stage,
              const device::DeviceProfile &dev)
{
    core::FusionPolicy policy;
    policy.fuseTransformChains = true;
    policy.fuseNormMatmulPrologue = true;
    policy.eliminateTransforms = stage >= 1;
    runtime::ExecutionPlan plan = core::planGraph(graph, policy);
    core::assignLayouts(plan,
                        stage >= 3 ? core::LayoutStrategy::SmartSelect
                                   : core::LayoutStrategy::FusedTexture,
                        dev);
    return plan;
}

/** Run `graph` through both stages and both backends; every result
 *  must match `ref` (the raw-graph functional reference) to 1e-4. */
void
expectExecutionParity(const ir::Graph &graph,
                      const std::map<std::string, exec::Tensor> &by_name,
                      const std::vector<exec::Tensor> &ref,
                      std::uint64_t seed, const std::string &label)
{
    auto dev = device::adreno740();
    auto inputs = remapInputs(graph, by_name);
    for (int stage : {0, 3}) {
        auto plan = makeStagePlan(graph, stage, dev);
        for (const std::string &backend : runtime::executorNames()) {
            exec::CpuBackendOptions opts;
            opts.seed = seed;
            auto engine = runtime::makeExecutor(backend, opts);
            auto got = engine->run(plan, inputs);
            ASSERT_EQ(ref.size(), got.size()) << label;
            EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
                << label << " stage " << stage << " backend " << backend;
        }
    }
}

class PassDifferential : public ::testing::TestWithParam<std::string>
{
};

/**
 * The pass pipeline's correctness gate: chain every registered pass
 * in pipeline order over the model, differential-executing after each
 * rewrite.  Unchanged passes must keep the signature byte-stable.
 */
TEST_P(PassDifferential, EveryPassPreservesExecution)
{
    for (int batch : {1, 4}) {
        const std::string tag =
            GetParam() + " batch " + std::to_string(batch);
        ir::Graph g0 = models::buildTinyVariant(GetParam(), batch);
        exec::Executor ex(kSeed);
        auto by_name = seededInputsByName(g0, ex);
        auto ref = ex.runOutputs(g0, remapInputs(g0, by_name));

        // The pre-pass graph itself must survive staged planning.
        expectExecutionParity(g0, by_name, ref, kSeed, tag + " pre-pass");

        ir::Graph cur = g0;
        for (const std::string &name : opt::PassManager::passNames()) {
            auto pass = opt::PassManager::create(name);
            opt::PassStats stats;
            ir::Graph next = pass->run(cur, stats);
            if (stats.changed) {
                EXPECT_GT(stats.total(), 0) << name << " " << tag;
                expectExecutionParity(next, by_name, ref, kSeed,
                                      tag + " post " + name);
            } else {
                // Nothing to do => byte-stable plan-cache key.
                EXPECT_EQ(serialize::graphSignature(cur),
                          serialize::graphSignature(next))
                    << name << " " << tag;
            }
            cur = std::move(next);
        }

        // The production entry point (fixed-point pipeline) composes
        // the same passes; its output must also hold parity.
        ir::Graph canon = core::canonicalizeGraph(g0);
        expectExecutionParity(canon, by_name, ref, kSeed,
                              tag + " canonicalized");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PassDifferential, ::testing::ValuesIn(models::evaluationModels()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * Folded constants are derived recipes (salt + fold attrs), not
 * baked values, so canonicalization must commute with the executor
 * seed: for any seed, the rewritten graph computes what the raw
 * graph computes under that same seed.  Swin covers gather folding
 * and CSE, RegNet covers conv+batchnorm folding.
 */
TEST(PassDifferentialSeeds, FoldRecipesAreSeedInvariant)
{
    for (const std::string &model : {std::string("Swin-Transformer"),
                                     std::string("RegNet")}) {
        ir::Graph g0 = models::buildTinyVariant(model);
        ir::Graph canon = core::canonicalizeGraph(g0);
        for (std::uint64_t seed : {std::uint64_t(99), std::uint64_t(31337)}) {
            exec::Executor ex(seed);
            auto by_name = seededInputsByName(g0, ex);
            auto ref = ex.runOutputs(g0, remapInputs(g0, by_name));
            expectExecutionParity(canon, by_name, ref, seed,
                                  model + " seed " +
                                      std::to_string(seed));
        }
    }
}

/**
 * Acceptance gate for the pipeline itself: each of the four new
 * passes (cse, algebraic, const-fold, conv-bn-fold) must measurably
 * rewrite at least one full-size evaluation model, and no pipeline
 * run may increase the operator count.
 */
TEST(PassDifferentialCoverage, EachNewPassRewritesSomeZooModel)
{
    std::map<std::string, int> totals;
    for (const std::string &name : models::evaluationModels()) {
        ir::Graph g = models::buildModel(name);
        opt::PipelineStats stats;
        ir::Graph canon = core::canonicalizeGraph(g, &stats);
        EXPECT_LE(canon.nodes().size(), g.nodes().size()) << name;
        for (const std::string &pass : opt::PassManager::passNames())
            totals[pass] += stats.totalFor(pass).total();
    }
    for (const std::string &pass :
         {std::string("cse"), std::string("algebraic"),
          std::string("const-fold"), std::string("conv-bn-fold"),
          std::string("attention-fusion"), std::string("dce")}) {
        EXPECT_GT(totals[pass], 0)
            << pass << " never fired across the evaluation zoo";
    }
}

} // namespace
} // namespace smartmem
