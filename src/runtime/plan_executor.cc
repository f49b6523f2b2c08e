#include "runtime/plan_executor.h"

#include "runtime/functional_runner.h"
#include "support/error.h"
#include "support/strings.h"

namespace smartmem::runtime {

namespace {

class ReferenceExecutor final : public PlanExecutor
{
  public:
    explicit ReferenceExecutor(const exec::CpuBackendOptions &opts)
        : seed_(opts.seed)
    {
    }

    const std::string &name() const override
    {
        static const std::string n = "reference";
        return n;
    }

    std::shared_ptr<const Prepared>
    prepare(const ExecutionPlan &plan) const override
    {
        return std::make_shared<const Prepared>(plan);
    }

    using PlanExecutor::run;
    std::vector<exec::Tensor>
    run(const Prepared &prepared,
        const std::map<ir::ValueId, exec::Tensor> &inputs) override
    {
        return runPlanFunctional(prepared.plan(), inputs, seed_);
    }

    const exec::CpuBackendStats &stats() const override
    {
        static const exec::CpuBackendStats none;
        return none;
    }

  private:
    std::uint64_t seed_;
};

class CpuBlockedExecutor final : public PlanExecutor
{
  public:
    explicit CpuBlockedExecutor(const exec::CpuBackendOptions &opts)
        : backend_(opts)
    {
    }

    const std::string &name() const override
    {
        static const std::string n = "cpu-blocked";
        return n;
    }

    /** The handle holds the backend's prepared plan. */
    struct BlockedPrepared final : Prepared
    {
        explicit BlockedPrepared(
            std::shared_ptr<const exec::PreparedPlan> p)
            : Prepared(*p->plan), prepared(std::move(p))
        {
        }
        std::shared_ptr<const exec::PreparedPlan> prepared;
    };

    std::shared_ptr<const Prepared>
    prepare(const ExecutionPlan &plan) const override
    {
        return std::make_shared<const BlockedPrepared>(
            backend_.prepare(plan));
    }

    using PlanExecutor::run;
    std::vector<exec::Tensor>
    run(const Prepared &prepared,
        const std::map<ir::ValueId, exec::Tensor> &inputs) override
    {
        const auto *own = dynamic_cast<const BlockedPrepared *>(&prepared);
        SM_REQUIRE(own != nullptr,
                   "plan was prepared by another execution backend");
        return backend_.run(*own->prepared, inputs, &stats_);
    }

    const exec::CpuBackendStats &stats() const override
    {
        return stats_;
    }

  private:
    exec::CpuBackend backend_;
    exec::CpuBackendStats stats_;
};

} // namespace

const std::vector<std::string> &
executorNames()
{
    static const std::vector<std::string> names = {"reference",
                                                   "cpu-blocked"};
    return names;
}

std::unique_ptr<PlanExecutor>
makeExecutor(const std::string &name,
             const exec::CpuBackendOptions &options)
{
    if (name == "reference")
        return std::make_unique<ReferenceExecutor>(options);
    if (name == "cpu-blocked")
        return std::make_unique<CpuBlockedExecutor>(options);
    smFatal("unknown execution backend '" + name +
            "' (registered: " + joinStrings(executorNames(), ", ") +
            ")");
}

} // namespace smartmem::runtime
