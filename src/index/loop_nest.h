/**
 * @file
 * Lowering of index expressions to affine loop nests.
 *
 * The maps that eliminated layout transformations leave behind
 * (Section 3.2.1) are div/mod expressions over the consumer's output
 * coordinates, e.g. Swin's window partition
 * ((v1 / 56) % 7) * 7 + v1 % 7.  Such an expression is not affine in
 * v1, but it is affine in v1's *mixed-radix digits*: split
 * v1 in [0, 3136) at its constant divisors 7, 56 and 392 into digits
 * of radix (8, 7, 8, 7) and every div/mod by one of those cut points
 * becomes a selection of digits.  A loop per digit then reproduces the
 * map with one multiply-add per loop and no per-element division.
 *
 * lowerToLoopNest() finds the coarsest such split: it starts from one
 * digit per variable and, whenever a Div/Mod straddles a digit,
 * splits that digit at the cut the divisor needs.  Cuts of one
 * variable must nest (each divides the next and the extent); a
 * divisor pair that does not nest (v / 6 with v % 4), an expression
 * that stays non-affine after splitting, or a Lookup makes the
 * lowering fail.
 */
#ifndef SMARTMEM_INDEX_LOOP_NEST_H
#define SMARTMEM_INDEX_LOOP_NEST_H

#include <cstdint>
#include <optional>
#include <vector>

#include "index/expr.h"
#include "ir/shape.h"

namespace smartmem::index {

class IndexMap;

/**
 * An affine loop nest over a domain shape.  Running the loops
 * outermost-first visits the domain in row-major order (loop i's
 * index is one digit of one domain variable); at loop indices
 * (j_0, ..., j_{n-1}) expression e evaluates to
 * base[e] + sum_i loops[i].coef[e] * j_i.  A zero-loop nest is a
 * single point.
 */
struct LoopNest
{
    struct Loop
    {
        std::int64_t extent = 1;
        std::vector<std::int64_t> coef; ///< one per expression
    };

    std::vector<Loop> loops;        ///< outermost first
    std::vector<std::int64_t> base; ///< one per expression
};

/**
 * Lower `exprs` over variables v_i in [0, domain.dim(i)) to a loop
 * nest, or nullopt when some expression is not affine in any nesting
 * digit split (see file header).  Pure; cost is a few passes over the
 * expression trees.
 */
std::optional<LoopNest> lowerToLoopNest(const std::vector<Expr> &exprs,
                                        const ir::Shape &domain);

/** lowerToLoopNest(map.exprs(), map.outputShape()): coef and base are
 *  per input dimension of the map. */
std::optional<LoopNest> lowerToLoopNest(const IndexMap &map);

} // namespace smartmem::index

#endif // SMARTMEM_INDEX_LOOP_NEST_H
