/**
 * @file
 * Functional reference executor: computes real float results for a
 * Graph.  Naive implementations, correctness first.  Constants are
 * synthesized deterministically from the value id (or taken from a
 * "data" attribute for integer tables such as Gather indices).
 */
#ifndef SMARTMEM_EXEC_EXECUTOR_H
#define SMARTMEM_EXEC_EXECUTOR_H

#include <map>
#include <vector>

#include "exec/tensor.h"
#include "ir/graph.h"

namespace smartmem::exec {

/**
 * Everything a synthesized constant's bytes depend on.  Two constants
 * with equal recipes hold identical bytes, whatever graph or value id
 * they come from, so the recipe is the resident weight store's key
 * (exec/weight_store.h).  Fields a constant's kind does not read stay
 * at their defaults: a "data" constant keeps only shape and data.
 */
struct ConstantRecipe
{
    ir::Shape shape;
    std::uint64_t seed = 0;
    /** Synthesis stream: the "salt" attr, else the value id. */
    std::uint64_t salt = 0;
    /** Literal contents (the "data" attr). */
    std::vector<std::int64_t> data;
    /** Constant-folded Gather over the salt stream's table of
     *  gatherCount entries (fold_gather_idx / fold_gather_count). */
    std::vector<std::int64_t> gatherIdx;
    std::int64_t gatherCount = 0;
    /** Conv+BatchNorm fold: output channel o scaled by stream
     *  bnScaleSalt's value o % bnScaleCount (0 = no fold). */
    std::uint64_t bnScaleSalt = 0;
    std::int64_t bnScaleCount = 0;

    bool operator==(const ConstantRecipe &o) const;
    std::uint64_t hash() const;
    std::int64_t bytes() const
    {
        return shape.numElements() *
               static_cast<std::int64_t>(sizeof(float));
    }
};

/** The recipe of constant `id` at `seed`.  Throws FatalError when its
 *  attrs disagree with its shape. */
ConstantRecipe constantRecipe(const ir::Graph &graph, ir::ValueId id,
                              std::uint64_t seed);

/** Write the recipe's row-major contents (shape.numElements() floats)
 *  to `dst`. */
void synthesizeInto(const ConstantRecipe &recipe, float *dst);

/** Executes graphs with real float math. */
class Executor
{
  public:
    /** @param seed  Seed for synthesized constant contents. */
    explicit Executor(std::uint64_t seed = 1234) : seed_(seed) {}

    /**
     * Run the whole graph on the given model inputs (keyed by input
     * value id).  Returns every value's tensor (indexable by ValueId).
     */
    std::map<ir::ValueId, Tensor>
    run(const ir::Graph &graph,
        const std::map<ir::ValueId, Tensor> &inputs) const;

    /** Run and return just the graph outputs, in declaration order. */
    std::vector<Tensor>
    runOutputs(const ir::Graph &graph,
               const std::map<ir::ValueId, Tensor> &inputs) const;

    /** Synthesize the deterministic constant tensor for a value:
     *  synthesizeInto(constantRecipe(graph, id, seed)). */
    Tensor synthesizeConstant(const ir::Graph &graph,
                              ir::ValueId id) const;

    /** Deterministic random input tensor (for tests/examples). */
    Tensor randomTensor(const ir::Shape &shape, std::uint64_t salt) const;

  private:
    std::uint64_t seed_;
};

/**
 * Execute a single node given resolved input tensors.  Exposed so the
 * runtime's FunctionalRunner can execute fused kernels op-by-op.
 */
Tensor evalNode(const ir::Graph &graph, const ir::Node &node,
                const std::vector<const Tensor *> &inputs);

/**
 * Deterministic input tensors for every graph input (salted 100+i by
 * position) -- the one seeding convention shared by the parity tests,
 * the CI `--check` gate, and `smartmem_cli run --verify`, so all
 * three agree on what execution they compare.
 */
std::map<ir::ValueId, Tensor> makeSeededInputs(const ir::Graph &graph,
                                               const Executor &ex);

/**
 * Worst relative difference over output pairs:
 * max_i ( maxAbsDiff(ref[i], got[i]) / max|ref[i]| ).  The backend
 * parity tolerance (1e-4, docs/EXECUTION.md) is checked against this.
 */
float maxRelDiff(const std::vector<Tensor> &ref,
                 const std::vector<Tensor> &got);

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_EXECUTOR_H
