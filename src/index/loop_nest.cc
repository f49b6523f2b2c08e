#include "index/loop_nest.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "index/index_map.h"
#include "support/error.h"

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

/** Most digits a lowering may use; a straddle past it stays opaque.  A
 *  fixed bound keeps forms on the stack and digit sets in one word:
 *  the backend lowers on every run, so lowering must not allocate per
 *  expression node. */
constexpr std::size_t kMaxDigits = 32;

using DigitSet = std::uint32_t;

/**
 * c + sum_i a[i] * digit_i + O, where the opaque part O is a sum of
 * non-affine subterms that read only the digits in `mask`; each
 * subterm's multiplier is a multiple of g (0: no opaque part) and O
 * lies in [lo, hi].  Entries of `a` past the digit count are unused.
 */
struct Affine
{
    std::int64_t c = 0;
    std::array<std::int64_t, kMaxDigits> a;
    DigitSet mask = 0;
    std::int64_t g = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
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
        SM_ASSERT(digits_.size() <= kMaxDigits,
                  "loop nest domain has more than 32 non-unit dims");
    }

    const std::vector<Digit> &digits() const { return digits_; }

    /** The form of `e` under the current digits into `out`.  A
     *  straddled Div/Mod records the cuts that would resolve it. */
    void form(const Expr &e, Affine &out);

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
        n_ = digits_.size();
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

    static void clearOpaque(Affine &f)
    {
        f.mask = 0;
        f.g = f.lo = f.hi = 0;
    }

    void zero(Affine &f) const
    {
        f.c = 0;
        std::fill_n(f.a.begin(), n_, 0);
        clearOpaque(f);
    }

    /** The digits `f` reads: its affine digits and its opaque part's. */
    DigitSet reads(const Affine &f) const
    {
        DigitSet m = f.mask;
        for (std::size_t i = 0; i < n_; ++i)
            if (f.a[i] != 0)
                m |= DigitSet{1} << i;
        return m;
    }

    /** Bounds of f's value over the digit box. */
    std::pair<std::int64_t, std::int64_t> bounds(const Affine &f) const
    {
        std::int64_t lo = f.c + f.lo, hi = f.c + f.hi;
        for (std::size_t i = 0; i < n_; ++i) {
            const std::int64_t span = f.a[i] * (digits_[i].radix - 1);
            (span < 0 ? lo : hi) += span;
        }
        return {lo, hi};
    }

    /** Replace `f` by one opaque term over `mask` valued in [lo, hi]. */
    void opaque(Affine &f, DigitSet mask, std::int64_t lo,
                std::int64_t hi) const
    {
        zero(f);
        f.mask = mask;
        f.g = 1;
        f.lo = lo;
        f.hi = hi;
    }

    void divMod(const Expr &e, Affine &out);

    std::vector<std::vector<std::int64_t>> cuts_; ///< per var, 1 | ... | extent
    std::vector<Digit> digits_;
    std::size_t n_ = 0; ///< digits_.size()
    std::vector<std::pair<int, std::int64_t>> wanted_;
};

void
Lowering::form(const Expr &e, Affine &out)
{
    switch (e->kind) {
      case ExprKind::Const:
        zero(out);
        out.c = e->value;
        return;
      case ExprKind::Var:
        SM_ASSERT(e->value >= 0 &&
                      e->value < static_cast<std::int64_t>(cuts_.size()),
                  "var id outside the loop nest domain");
        zero(out);
        for (std::size_t i = 0; i < n_; ++i)
            if (digits_[i].var == e->value)
                out.a[i] = digits_[i].weight;
        return;
      case ExprKind::Add:
      case ExprKind::Mul: {
        // Both sides first, so one pass collects every wanted cut.
        Affine r;
        form(e->lhs, out);
        form(e->rhs, r);
        if (e->kind == ExprKind::Add) {
            out.c += r.c;
            for (std::size_t i = 0; i < n_; ++i)
                out.a[i] += r.a[i];
            out.mask |= r.mask;
            out.g = std::gcd(out.g, r.g);
            out.lo += r.lo;
            out.hi += r.hi;
            return;
        }
        if (reads(r) != 0)
            std::swap(out, r);
        if (reads(r) != 0) {
            // Product of two non-constant terms.
            const auto [al, ah] = bounds(out);
            const auto [bl, bh] = bounds(r);
            const std::int64_t p[] = {al * bl, al * bh, ah * bl, ah * bh};
            opaque(out, reads(out) | reads(r),
                   *std::min_element(std::begin(p), std::end(p)),
                   *std::max_element(std::begin(p), std::end(p)));
            return;
        }
        const std::int64_t k = r.c;
        out.c *= k;
        for (std::size_t i = 0; i < n_; ++i)
            out.a[i] *= k;
        if (k == 0) {
            clearOpaque(out);
        } else {
            out.g *= k < 0 ? -k : k;
            out.lo *= k;
            out.hi *= k;
            if (k < 0)
                std::swap(out.lo, out.hi);
        }
        return;
      }
      case ExprKind::Div:
      case ExprKind::Mod:
        divMod(e, out);
        return;
      case ExprKind::Lookup: {
        form(e->lhs, out);
        const std::vector<std::int64_t> &t = *e->table;
        const DigitSet m = reads(out);
        if (m == 0) { // constant index
            SM_ASSERT(out.c >= 0 &&
                      out.c < static_cast<std::int64_t>(t.size()),
                      "lookup index out of bounds");
            out.c = t[static_cast<std::size_t>(out.c)];
            return;
        }
        const auto [mn, mx] = std::minmax_element(t.begin(), t.end());
        opaque(out, m, *mn, *mx);
        return;
      }
    }
    smPanic("unhandled expr kind in lowerToLoopNest");
}

void
Lowering::divMod(const Expr &e, Affine &out)
{
    form(e->lhs, out);
    const std::int64_t d = e->rhs->value;
    const bool div = e->kind == ExprKind::Div;
    if (out.c < 0 || (out.mask != 0 && out.lo < 0) ||
        std::any_of(out.a.begin(), out.a.begin() + n_,
                    [](std::int64_t v) { return v < 0; })) {
        // Generated maps never go negative; a parsed one that does is
        // opaque as a whole (C++ division truncates toward zero).
        const auto [lo, hi] = bounds(out);
        const DigitSet m = reads(out);
        if (m == 0)
            out.c = div ? out.c / d : out.c % d;
        else
            opaque(out, m, div ? lo / d : (lo < 0 ? 1 - d : 0),
                   div ? hi / d : d - 1);
        return;
    }
    // x = d * Q + R, with Q the quotient parts of c, of each digit
    // coefficient and -- when every multiplier in it is a multiple of
    // d -- of the opaque part, and R the rest.  Then x / d = Q + R / d
    // and x % d = R % d; when R stays below d on the whole digit box,
    // R / d = 0 and R % d = R, else each is one opaque term over the
    // digits R reads.  Zero coefficients are skipped: most forms touch
    // few digits, and 64-bit division dominates the cost of lowering.
    const bool opaqueInQ = out.mask != 0 && out.g % d == 0;
    DigitSet rmask = opaqueInQ ? 0 : out.mask;
    std::int64_t rmax = out.c % d + (opaqueInQ ? 0 : out.hi);
    for (std::size_t i = 0; i < n_; ++i) {
        if (out.a[i] != 0 && out.a[i] % d != 0) {
            rmax += (out.a[i] % d) * (digits_[i].radix - 1);
            rmask |= DigitSet{1} << i;
        }
    }
    const bool exact = rmax < d;
    for (std::size_t i = 0; i < n_ && !exact; ++i) {
        // A digit whose coefficient divides d straddles the cut
        // d / coefficient: splitting it there moves the high part into
        // the quotient.
        if (out.a[i] != 0 && out.a[i] % d != 0 && d % out.a[i] == 0)
            wanted_.emplace_back(digits_[i].var,
                                 digits_[i].weight * (d / out.a[i]));
    }
    out.c = div ? out.c / d : out.c % d;
    for (std::size_t i = 0; i < n_; ++i)
        if (out.a[i] != 0)
            out.a[i] = div ? out.a[i] / d : out.a[i] % d;
    if (opaqueInQ != div) {
        clearOpaque(out); // the opaque part is in the other half
    } else if (div) {
        out.g /= d;
        out.lo /= d;
        out.hi /= d;
    }
    if (!exact && div) {
        out.mask |= rmask;
        out.g = 1;
        out.hi += rmax / d;
    } else if (!exact) {
        opaque(out, rmask, 0, std::min(d - 1, rmax));
    }
}

/** Digit sets of the table loops: the unions of overlapping opaque
 *  masks across all forms. */
struct Groups
{
    std::array<DigitSet, kMaxDigits> sets{};
    std::size_t n = 0;

    void add(DigitSet m)
    {
        for (std::size_t k = 0; k < n;) {
            if ((sets[k] & m) != 0) {
                m |= sets[k];
                sets[k] = sets[--n];
            } else {
                ++k;
            }
        }
        sets[n++] = m;
    }

    /** The set holding digit i, or 0. */
    DigitSet of(std::size_t i) const
    {
        for (std::size_t k = 0; k < n; ++k)
            if ((sets[k] >> i) & 1u)
                return sets[k];
        return 0;
    }
};

} // namespace

LoopNest
lowerToLoopNest(const std::vector<Expr> &exprs, const ir::Shape &domain)
{
    LoopNest nest;
    if (domain.numElements() == 0) {
        nest.loops.push_back({0, std::vector<std::int64_t>(exprs.size()), {}});
        nest.base.assign(exprs.size(), 0);
        return nest;
    }
    Lowering low(domain);
    std::vector<Affine> forms(exprs.size());
    // Every refinement adds a cut, and cuts are bounded by the digit
    // budget, so this terminates.
    do {
        for (std::size_t k = 0; k < exprs.size(); ++k)
            low.form(exprs[k], forms[k]); // all, to collect cuts
    } while (low.refine());

    const std::vector<Digit> &digits = low.digits();
    Groups groups;
    for (const Affine &f : forms)
        if (f.mask != 0)
            groups.add(f.mask);
    nest.base.reserve(exprs.size());
    std::vector<std::int64_t> vars; // domain point, for opaque forms
    if (groups.n > 0)
        vars.assign(static_cast<std::size_t>(domain.rank()), 0);
    for (std::size_t k = 0; k < exprs.size(); ++k)
        nest.base.push_back(forms[k].mask != 0 ? evalExpr(exprs[k], vars)
                                               : forms[k].c);

    nest.loops.reserve(digits.size());
    for (std::size_t i = 0; i < digits.size(); ++i) {
        LoopNest::Loop loop;
        const DigitSet group = groups.of(i);
        if (group == 0) {
            loop.extent = digits[i].radix;
            for (const Affine &f : forms)
                loop.coef.push_back(f.a[i]);
            nest.loops.push_back(std::move(loop));
            continue;
        }
        if ((group >> i) > 1u)
            continue; // the group's innermost digit carries it
        // One entry per combination of the group's digits (the last,
        // innermost digit fastest): the affine contributions of those
        // digits, or for a form with opaque terms in the group its
        // value with every other digit at 0, less the base.  Forms are
        // sums of parts over disjoint digit sets, so the contributions
        // of the loops add up to the value.
        std::int64_t extent = 1;
        for (std::size_t m = 0; m <= i; ++m)
            if ((group >> m) & 1u)
                extent *= digits[m].radix;
        loop.extent = extent;
        loop.table.reserve(static_cast<std::size_t>(extent) *
                           exprs.size());
        std::array<std::int64_t, kMaxDigits> j{};
        for (std::int64_t q = 0; q < extent; ++q) {
            std::int64_t rest = q;
            std::fill(vars.begin(), vars.end(), 0);
            for (std::size_t m = i + 1; m-- > 0;) {
                if (!((group >> m) & 1u))
                    continue;
                j[m] = rest % digits[m].radix;
                rest /= digits[m].radix;
                vars[static_cast<std::size_t>(digits[m].var)] +=
                    j[m] * digits[m].weight;
            }
            for (std::size_t k = 0; k < exprs.size(); ++k) {
                const Affine &f = forms[k];
                if ((f.mask & group) != 0) {
                    loop.table.push_back(evalExpr(exprs[k], vars) -
                                         nest.base[k]);
                    continue;
                }
                std::int64_t v = 0;
                for (std::size_t m = 0; m <= i; ++m)
                    if ((group >> m) & 1u)
                        v += f.a[m] * j[m];
                loop.table.push_back(v);
            }
        }
        nest.loops.push_back(std::move(loop));
    }
    return nest;
}

LoopNest
lowerToLoopNest(const IndexMap &map)
{
    return lowerToLoopNest(map.exprs(), map.outputShape());
}

} // namespace smartmem::index
