#include "index/loop_nest.h"

#include <algorithm>
#include <array>
#include <utility>

#include "index/index_map.h"

namespace smartmem::index {

namespace {

/** One mixed-radix digit of a domain variable: the variable is the sum
 *  over its digits of weight * digit, digit in [0, radix). */
struct Digit
{
    int var = 0;
    std::int64_t weight = 1;
    std::int64_t radix = 1;
};

/** Most digits a lowering may use; more fails the lowering.  A fixed
 *  bound keeps affine forms on the stack: the backend lowers on every
 *  run, so lowering must not allocate per expression node. */
constexpr std::size_t kMaxDigits = 32;

/** c + sum_i a[i] * digit_i; entries past the digit count are unused. */
struct Affine
{
    std::int64_t c = 0;
    std::array<std::int64_t, kMaxDigits> a;
};

class Lowering
{
  public:
    explicit Lowering(const ir::Shape &domain)
    {
        for (int v = 0; v < domain.rank(); ++v) {
            std::vector<std::int64_t> c{1};
            if (domain.dim(v) > 1)
                c.push_back(domain.dim(v));
            cuts_.push_back(std::move(c));
        }
        layoutDigits();
    }

    const std::vector<Digit> &digits() const { return digits_; }

    /** Affine form of `e` under the current digits into `out`; false
     *  when there is none.  A straddled Div/Mod records the cuts that
     *  would resolve it. */
    bool affine(const Expr &e, Affine &out);

    /** Apply the recorded cuts; false when none was applicable. */
    bool refine()
    {
        bool changed = false;
        for (const auto &[var, cut] : wanted_)
            changed |= addCut(var, cut);
        wanted_.clear();
        if (changed)
            layoutDigits();
        return changed;
    }

  private:
    /** Digits in loop order: variables outermost-first, each
     *  variable's digits from most to least significant. */
    void layoutDigits()
    {
        digits_.clear();
        for (std::size_t v = 0; v < cuts_.size(); ++v) {
            const auto &c = cuts_[v];
            for (std::size_t j = c.size() - 1; j > 0; --j)
                digits_.push_back({static_cast<int>(v), c[j - 1],
                                   c[j] / c[j - 1]});
        }
        n_ = std::min(digits_.size(), kMaxDigits);
    }

    /** Split variable `var` at `cut` if the cut nests with its
     *  existing ones (strictly between two neighbours it divides and
     *  is divided by) and the digit budget allows. */
    bool addCut(int var, std::int64_t cut)
    {
        std::size_t total = 0;
        for (const auto &c : cuts_)
            total += c.size() - 1;
        auto &c = cuts_[static_cast<std::size_t>(var)];
        auto succ = std::lower_bound(c.begin(), c.end(), cut);
        if (succ == c.begin() || succ == c.end() || *succ == cut ||
            cut % *(succ - 1) != 0 || *succ % cut != 0 ||
            total >= kMaxDigits)
            return false;
        c.insert(succ, cut);
        return true;
    }

    void zero(Affine &f) const
    {
        f.c = 0;
        std::fill_n(f.a.begin(), n_, 0);
    }

    bool isConstant(const Affine &f) const
    {
        return std::all_of(f.a.begin(), f.a.begin() + n_,
                           [](std::int64_t x) { return x == 0; });
    }

    std::vector<std::vector<std::int64_t>> cuts_; ///< per var, 1 | ... | extent
    std::vector<Digit> digits_;
    std::size_t n_ = 0; ///< digits_.size()
    std::vector<std::pair<int, std::int64_t>> wanted_;
};

bool
Lowering::affine(const Expr &e, Affine &out)
{
    switch (e->kind) {
      case ExprKind::Const:
        zero(out);
        out.c = e->value;
        return true;
      case ExprKind::Var: {
        if (e->value < 0 ||
            e->value >= static_cast<std::int64_t>(cuts_.size()))
            return false;
        zero(out);
        for (std::size_t i = 0; i < n_; ++i)
            if (digits_[i].var == e->value)
                out.a[i] = digits_[i].weight;
        return true;
      }
      case ExprKind::Add:
      case ExprKind::Mul: {
        // Both sides first, so one pass collects every wanted cut.
        Affine r;
        const bool lok = affine(e->lhs, out);
        const bool rok = affine(e->rhs, r);
        if (!lok || !rok)
            return false;
        if (e->kind == ExprKind::Add) {
            out.c += r.c;
            for (std::size_t i = 0; i < n_; ++i)
                out.a[i] += r.a[i];
            return true;
        }
        if (isConstant(out))
            std::swap(out, r);
        if (!isConstant(r))
            return false; // product of two digit terms
        out.c *= r.c;
        for (std::size_t i = 0; i < n_; ++i)
            out.a[i] *= r.c;
        return true;
      }
      case ExprKind::Div:
      case ExprKind::Mod: {
        if (!affine(e->lhs, out))
            return false;
        const std::int64_t d = e->rhs->value;
        if (out.c < 0 || std::any_of(out.a.begin(), out.a.begin() + n_,
                                     [](std::int64_t v) { return v < 0; }))
            return false; // generated maps never go negative
        // x = d * (quotient part) + (remainder part); when the
        // remainder part stays below d on the whole digit box, x / d
        // and x % d are exactly those parts.
        // Zero coefficients are skipped: most forms touch few digits,
        // and 64-bit division dominates the cost of lowering.
        std::int64_t rmax = out.c % d;
        for (std::size_t i = 0; i < n_; ++i)
            if (out.a[i] != 0)
                rmax += (out.a[i] % d) * (digits_[i].radix - 1);
        if (rmax >= d) {
            // A digit whose coefficient divides d straddles the cut
            // d / coefficient: splitting it there moves the high part
            // into the quotient.
            for (std::size_t i = 0; i < n_; ++i) {
                if (out.a[i] != 0 && out.a[i] % d != 0 &&
                    d % out.a[i] == 0)
                    wanted_.emplace_back(
                        digits_[i].var, digits_[i].weight * (d / out.a[i]));
            }
            return false;
        }
        const bool div = e->kind == ExprKind::Div;
        out.c = div ? out.c / d : out.c % d;
        for (std::size_t i = 0; i < n_; ++i)
            if (out.a[i] != 0)
                out.a[i] = div ? out.a[i] / d : out.a[i] % d;
        return true;
      }
      case ExprKind::Lookup:
        return false;
    }
    return false;
}

} // namespace

std::optional<LoopNest>
lowerToLoopNest(const std::vector<Expr> &exprs, const ir::Shape &domain)
{
    LoopNest nest;
    if (domain.numElements() == 0) {
        nest.loops.push_back({0, std::vector<std::int64_t>(exprs.size())});
        nest.base.assign(exprs.size(), 0);
        return nest;
    }
    Lowering low(domain);
    if (low.digits().size() > kMaxDigits)
        return std::nullopt;
    std::vector<Affine> forms(exprs.size());
    while (true) {
        bool ok = true;
        for (std::size_t k = 0; k < exprs.size(); ++k)
            ok &= low.affine(exprs[k], forms[k]); // all, to collect cuts
        if (ok)
            break;
        // Every refinement adds a cut, and cuts are bounded by the
        // extents' prime factor counts, so this terminates.
        if (!low.refine())
            return std::nullopt;
    }
    nest.loops.reserve(low.digits().size());
    for (std::size_t i = 0; i < low.digits().size(); ++i) {
        LoopNest::Loop loop;
        loop.extent = low.digits()[i].radix;
        for (const Affine &f : forms)
            loop.coef.push_back(f.a[i]);
        nest.loops.push_back(std::move(loop));
    }
    for (const Affine &f : forms)
        nest.base.push_back(f.c);
    return nest;
}

std::optional<LoopNest>
lowerToLoopNest(const IndexMap &map)
{
    return lowerToLoopNest(map.exprs(), map.outputShape());
}

} // namespace smartmem::index
