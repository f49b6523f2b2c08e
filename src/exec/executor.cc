#include "exec/executor.h"

#include <cmath>

#include "support/error.h"
#include "support/rng.h"

namespace smartmem::exec {

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    SM_REQUIRE(a.shape() == b.shape(), "maxAbsDiff shape mismatch");
    float mx = 0;
    for (std::int64_t i = 0; i < a.numElements(); ++i)
        mx = std::max(mx, std::fabs(a.at(i) - b.at(i)));
    return mx;
}

std::map<ir::ValueId, Tensor>
makeSeededInputs(const ir::Graph &graph, const Executor &ex)
{
    std::map<ir::ValueId, Tensor> inputs;
    for (std::size_t i = 0; i < graph.inputIds().size(); ++i) {
        const ir::ValueId id = graph.inputIds()[i];
        inputs[id] = ex.randomTensor(graph.value(id).shape, 100 + i);
    }
    return inputs;
}

float
maxRelDiff(const std::vector<Tensor> &ref, const std::vector<Tensor> &got)
{
    SM_REQUIRE(ref.size() == got.size(),
               "maxRelDiff output count mismatch");
    float worst = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        float mx = 0;
        for (std::int64_t e = 0; e < ref[i].numElements(); ++e)
            mx = std::max(mx, std::fabs(ref[i].at(e)));
        worst = std::max(worst,
                         maxAbsDiff(ref[i], got[i]) / (mx + 1e-30f));
    }
    return worst;
}

Tensor
Executor::randomTensor(const ir::Shape &shape, std::uint64_t salt) const
{
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + salt + 1);
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numElements(); ++i)
        t.at(i) = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return t;
}

bool
ConstantRecipe::operator==(const ConstantRecipe &o) const
{
    return shape == o.shape && seed == o.seed && salt == o.salt &&
           data == o.data && gatherIdx == o.gatherIdx &&
           gatherCount == o.gatherCount && bnScaleSalt == o.bnScaleSalt &&
           bnScaleCount == o.bnScaleCount;
}

std::uint64_t
ConstantRecipe::hash() const
{
    std::uint64_t h = 0;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    for (int d = 0; d < shape.rank(); ++d)
        mix(static_cast<std::uint64_t>(shape.dim(d)));
    mix(seed);
    mix(salt);
    for (const auto *ints : {&data, &gatherIdx}) {
        mix(ints->size());
        for (std::int64_t v : *ints)
            mix(static_cast<std::uint64_t>(v));
    }
    mix(static_cast<std::uint64_t>(gatherCount));
    mix(bnScaleSalt);
    mix(static_cast<std::uint64_t>(bnScaleCount));
    return h;
}

ConstantRecipe
constantRecipe(const ir::Graph &graph, ir::ValueId id, std::uint64_t seed)
{
    const ir::Value &v = graph.value(id);
    const ir::Node &n = graph.node(v.producer);
    SM_ASSERT(n.kind == ir::OpKind::Constant,
              "constantRecipe on non-constant");
    ConstantRecipe r;
    r.shape = v.shape;
    if (n.attrs.has("data")) {
        r.data = n.attrs.getInts("data");
        SM_REQUIRE(static_cast<std::int64_t>(r.data.size()) ==
                   v.shape.numElements(),
                   "constant data size mismatch");
        return r;
    }
    r.seed = seed;
    // Graph rewrites renumber values, so rewritten constants carry
    // their original stream id in a "salt" attr; fresh graphs fall
    // back to the value id, which keeps historical streams intact.
    r.salt = static_cast<std::uint64_t>(n.attrs.getInt("salt", id));
    if (n.attrs.has("fold_gather_idx")) {
        r.gatherIdx = n.attrs.getInts("fold_gather_idx");
        r.gatherCount = n.attrs.getInt("fold_gather_count");
        SM_REQUIRE(static_cast<std::int64_t>(r.gatherIdx.size()) ==
                   v.shape.numElements(),
                   "fold_gather_idx size mismatch");
        for (std::int64_t i : r.gatherIdx)
            SM_REQUIRE(i >= 0 && i < r.gatherCount,
                       "fold_gather_idx out of range");
        return r;
    }
    if (n.attrs.has("bnfold_scale_salt")) {
        r.bnScaleSalt = static_cast<std::uint64_t>(
            n.attrs.getInt("bnfold_scale_salt"));
        r.bnScaleCount = n.attrs.getInt("bnfold_scale_count");
    }
    return r;
}

void
synthesizeInto(const ConstantRecipe &r, float *dst)
{
    const std::int64_t n = r.shape.numElements();
    if (!r.data.empty()) {
        for (std::int64_t i = 0; i < n; ++i)
            dst[i] = static_cast<float>(r.data[static_cast<std::size_t>(i)]);
        return;
    }
    // Small magnitudes keep deep compositions numerically stable.
    auto fill = [&r](float *out, std::int64_t count, std::uint64_t stream) {
        Rng rng(r.seed + stream * 7919 + 17);
        for (std::int64_t i = 0; i < count; ++i)
            out[i] = static_cast<float>(rng.uniformReal(-0.25, 0.25));
    };

    if (!r.gatherIdx.empty()) {
        // Constant-folded Gather: element i is table[idx[i]] of the
        // source table's stream, so folding is seed-invariant.
        std::vector<float> table(static_cast<std::size_t>(r.gatherCount));
        fill(table.data(), r.gatherCount, r.salt);
        for (std::int64_t i = 0; i < n; ++i)
            dst[i] = table[static_cast<std::size_t>(
                r.gatherIdx[static_cast<std::size_t>(i)])];
        return;
    }

    fill(dst, n, r.salt);
    if (r.bnScaleCount > 0) {
        // Conv+BatchNorm folding: weight output-channel o is scaled by
        // the BN scale's stream value g[o % count], the same per-channel
        // factor evalBatchNorm would have applied to the conv output.
        std::vector<float> g(static_cast<std::size_t>(r.bnScaleCount));
        fill(g.data(), r.bnScaleCount, r.bnScaleSalt);
        const std::int64_t oc = r.shape.dim(0);
        const std::int64_t inner = n / oc;
        for (std::int64_t o = 0; o < oc; ++o)
            for (std::int64_t i = 0; i < inner; ++i)
                dst[o * inner + i] *=
                    g[static_cast<std::size_t>(o % r.bnScaleCount)];
    }
}

Tensor
Executor::synthesizeConstant(const ir::Graph &graph, ir::ValueId id) const
{
    const ConstantRecipe r = constantRecipe(graph, id, seed_);
    Tensor t(r.shape);
    synthesizeInto(r, t.data());
    return t;
}

std::map<ir::ValueId, Tensor>
Executor::run(const ir::Graph &graph,
              const std::map<ir::ValueId, Tensor> &inputs) const
{
    std::map<ir::ValueId, Tensor> env;
    for (ir::NodeId nid : graph.topoOrder()) {
        const ir::Node &node = graph.node(nid);
        switch (node.kind) {
          case ir::OpKind::Input: {
            auto it = inputs.find(node.output);
            SM_REQUIRE(it != inputs.end(),
                       "missing model input: " + node.name);
            SM_REQUIRE(it->second.shape() ==
                       graph.value(node.output).shape,
                       "input shape mismatch: " + node.name);
            env[node.output] = it->second;
            break;
          }
          case ir::OpKind::Constant:
            env[node.output] = synthesizeConstant(graph, node.output);
            break;
          default: {
            std::vector<const Tensor *> in_ptrs;
            for (ir::ValueId in : node.inputs) {
                auto it = env.find(in);
                SM_ASSERT(it != env.end(), "input not yet computed");
                in_ptrs.push_back(&it->second);
            }
            env[node.output] = evalNode(graph, node, in_ptrs);
            break;
          }
        }
    }
    return env;
}

std::vector<Tensor>
Executor::runOutputs(const ir::Graph &graph,
                     const std::map<ir::ValueId, Tensor> &inputs) const
{
    auto env = run(graph, inputs);
    std::vector<Tensor> out;
    for (ir::ValueId id : graph.outputIds()) {
        auto it = env.find(id);
        SM_ASSERT(it != env.end(), "graph output was not computed");
        out.push_back(it->second);
    }
    return out;
}

} // namespace smartmem::exec
