#include "exec/weight_store.h"

#include <algorithm>
#include <atomic>

#include "exec/kernels_blocked.h"

namespace smartmem::exec {

WeightStore &
WeightStore::global()
{
    // Never destroyed, so a prepared plan released during static
    // destruction still finds its store.
    static WeightStore *store = new WeightStore;
    return *store;
}

std::vector<std::shared_ptr<const float>>
WeightStore::acquire(const std::vector<ConstantRecipe> &recipes,
                     const ParallelRunner &par, int *synthesized)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t tick = ++tick_;

    // Mark the set (touching hits for LRU order) and size its misses;
    // a recipe listed twice is one entry.  Element pointers, unlike
    // iterators, survive the map's rehashing.
    std::int64_t setBytes = 0, missingBytes = 0;
    std::vector<Map::value_type *> set, missing;
    set.reserve(recipes.size());
    for (const ConstantRecipe &r : recipes) {
        auto [it, inserted] = entries_.try_emplace(r);
        Entry &e = it->second;
        if (e.lastUse != tick) {
            setBytes += r.bytes();
            if (inserted) {
                e.bytes = r.bytes();
                missingBytes += e.bytes;
                missing.push_back(&*it);
            }
            e.lastUse = tick;
        }
        set.push_back(&*it);
    }
    bound_ = std::max(bound_, setBytes);
    evictLocked(missingBytes, tick);

    // Allocate on this thread (so the buffers come from its allocator
    // arena, as serial synthesis did), then fill the largest first,
    // each worker taking the next constant.
    std::sort(missing.begin(), missing.end(),
              [](const Map::value_type *a, const Map::value_type *b) {
                  return a->second.bytes > b->second.bytes;
              });
    try {
        for (Map::value_type *m : missing)
            m->second.data = std::shared_ptr<float>(
                new float[static_cast<std::size_t>(
                    m->first.shape.numElements())],
                std::default_delete<float[]>());
        std::atomic<std::size_t> next{0};
        if (!missing.empty())
            par.run(par.threads(), 1, [&](std::int64_t, std::int64_t) {
                for (std::size_t i; (i = next++) < missing.size();)
                    synthesizeInto(missing[i]->first,
                                   missing[i]->second.data.get());
            });
    } catch (...) {
        for (Map::value_type *m : missing)
            entries_.erase(entries_.find(m->first));
        throw;
    }
    if (synthesized)
        *synthesized = static_cast<int>(missing.size());

    std::vector<std::shared_ptr<const float>> pins;
    pins.reserve(set.size());
    for (const Map::value_type *m : set)
        pins.push_back(m->second.data);
    return pins;
}

void
WeightStore::release(std::vector<std::shared_ptr<const float>> &pins)
{
    std::lock_guard<std::mutex> lock(mu_);
    pins.clear();
    evictLocked(0, tick_ + 1);
}

std::int64_t
WeightStore::idleBytesLocked() const
{
    std::int64_t bytes = 0;
    for (const auto &[recipe, e] : entries_)
        if (idle(e))
            bytes += e.bytes;
    return bytes;
}

void
WeightStore::evictLocked(std::int64_t extra, std::uint64_t tick)
{
    std::int64_t idleNow = idleBytesLocked();
    if (idleNow + extra <= bound_)
        return;
    std::vector<Map::iterator> victims;
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
        if (idle(it->second) && it->second.lastUse != tick)
            victims.push_back(it);
    std::sort(victims.begin(), victims.end(),
              [](Map::iterator a, Map::iterator b) {
                  return a->second.lastUse < b->second.lastUse;
              });
    for (Map::iterator it : victims) {
        if (idleNow + extra <= bound_)
            break;
        idleNow -= it->second.bytes;
        entries_.erase(it);
    }
}

std::int64_t
WeightStore::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t bytes = 0;
    for (const auto &[recipe, e] : entries_)
        bytes += e.bytes;
    return bytes;
}

std::int64_t
WeightStore::idleBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return idleBytesLocked();
}

std::int64_t
WeightStore::retentionBound() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bound_;
}

} // namespace smartmem::exec
