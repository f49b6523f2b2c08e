/**
 * @file
 * The process-wide store of resident, synthesized weights.
 *
 * Weights are keyed by content, not by plan: a ConstantRecipe names
 * everything a constant's bytes depend on (seed, shape, stream salt,
 * literal data, gather and BN folds), so batch-k plans, re-compiles
 * and graphs that renumber values share one entry.  A prepared plan
 * (exec::PreparedPlan) pins every weight it reads; unpinned entries
 * are idle.
 *
 * Retention rule: idle entries are kept up to the largest weight set
 * any single acquire() has needed (the bound).  Before synthesizing
 * misses, acquire() evicts idle entries, least recently used first,
 * until the idle bytes (this set's own hits included) plus the
 * missing bytes fit under the bound; release() trims idle entries to
 * the bound.  Pinned entries are never evicted, and an entry evicted
 * while a late pin still holds it stays alive through that pin.  A
 * zoo loop therefore keeps at most the largest model's weights
 * resident between runs, and a run at a new seed drops the old
 * seed's weights before it fills its own.
 *
 * All members are thread-safe; acquires serialize on the store's
 * mutex, fills included.
 */
#ifndef SMARTMEM_EXEC_WEIGHT_STORE_H
#define SMARTMEM_EXEC_WEIGHT_STORE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/executor.h"

namespace smartmem::exec {

class ParallelRunner;

class WeightStore
{
  public:
    /** The one store every CpuBackend prepares against. */
    static WeightStore &global();

    /**
     * One pinned row-major buffer per recipe, in order.  Misses are
     * synthesized in parallel across constants on `par`; each
     * constant has its own stream, so the bytes equal a serial fill.
     * `synthesized` (optional) receives the number of misses filled.
     */
    std::vector<std::shared_ptr<const float>>
    acquire(const std::vector<ConstantRecipe> &recipes,
            const ParallelRunner &par, int *synthesized = nullptr);

    /** Drop `pins` (clearing it), then trim idle entries to the
     *  bound. */
    void release(std::vector<std::shared_ptr<const float>> &pins);

    /** Bytes of every entry, pinned or idle. */
    std::int64_t residentBytes() const;

    /** Bytes of the entries no pin holds. */
    std::int64_t idleBytes() const;

    /** The retention bound: the largest weight set acquired so far. */
    std::int64_t retentionBound() const;

  private:
    struct Entry
    {
        std::shared_ptr<float> data;
        std::int64_t bytes = 0;
        std::uint64_t lastUse = 0; ///< acquire() tick, for LRU order
    };
    struct RecipeHash
    {
        std::size_t operator()(const ConstantRecipe &r) const
        {
            return static_cast<std::size_t>(r.hash());
        }
    };
    using Map = std::unordered_map<ConstantRecipe, Entry, RecipeHash>;

    static bool idle(const Entry &e) { return e.data.use_count() == 1; }
    std::int64_t idleBytesLocked() const;

    /** Evict idle entries not used at `tick`, LRU first, until the
     *  idle bytes plus `extra` fit under the bound. */
    void evictLocked(std::int64_t extra, std::uint64_t tick);

    mutable std::mutex mu_;
    Map entries_;
    std::int64_t bound_ = 0;
    std::uint64_t tick_ = 0;
};

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_WEIGHT_STORE_H
