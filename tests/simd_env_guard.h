/**
 * @file
 * Scoped SMARTMEM_SIMD override for the backend test suites, so a
 * test can run the cpu-blocked kernels at each level
 * exec::availableSimdLevels() reports.
 */
#ifndef SMARTMEM_TESTS_SIMD_ENV_GUARD_H
#define SMARTMEM_TESTS_SIMD_ENV_GUARD_H

#include <cstdlib>
#include <string>

namespace smartmem {

/** Sets SMARTMEM_SIMD (unsets it for null), restoring the prior
 *  value on destruction. */
class SimdEnvGuard
{
  public:
    explicit SimdEnvGuard(const char *level)
    {
        if (const char *old = std::getenv("SMARTMEM_SIMD")) {
            had_ = true;
            old_ = old;
        }
        if (level)
            setenv("SMARTMEM_SIMD", level, 1);
        else
            unsetenv("SMARTMEM_SIMD");
    }
    ~SimdEnvGuard()
    {
        if (had_)
            setenv("SMARTMEM_SIMD", old_.c_str(), 1);
        else
            unsetenv("SMARTMEM_SIMD");
    }

    SimdEnvGuard(const SimdEnvGuard &) = delete;
    SimdEnvGuard &operator=(const SimdEnvGuard &) = delete;

  private:
    bool had_ = false;
    std::string old_;
};

} // namespace smartmem

#endif // SMARTMEM_TESTS_SIMD_ENV_GUARD_H
