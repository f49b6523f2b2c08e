/**
 * @file
 * Lowering of index expressions to loop nests.
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
 * variable must nest (each divides the next and the extent), and at
 * most 32 digits are used.
 *
 * The lowering is total.  A subterm that stays non-affine under every
 * such split -- a Lookup (Gather indirection), a Div/Mod whose cut
 * does not nest (v / 6 with v % 4) or wraps inside a digit
 * ((v + 2) % 4), a straddle left once the digit budget is spent --
 * becomes an *opaque term* over the digits it reads.  The loops of
 * those digits collapse into one table loop whose per-index
 * contributions are evaluated once with evalExpr().  BiFormer's region
 * routing map, whose Lookup reads the region and top-k digits, becomes
 * one table loop of nr * topk entries over affine loops.  A table
 * holds one entry per combination of its digits, so in the worst case
 * (an opaque term reading every digit) one per domain point.  Maps
 * without opaque terms lower with no allocation per expression node.
 */
#ifndef SMARTMEM_INDEX_LOOP_NEST_H
#define SMARTMEM_INDEX_LOOP_NEST_H

#include <cstdint>
#include <vector>

#include "index/expr.h"
#include "ir/shape.h"

namespace smartmem::index {

class IndexMap;

/**
 * A loop nest over a domain shape.  Running the loops outermost-first
 * visits every domain point once; at loop indices (j_0, ..., j_{n-1})
 * expression e evaluates to base[e] plus each loop's contribution.
 * Without table loops the visit order is row-major (loop i's index is
 * one digit of one domain variable); a table loop sits where the
 * innermost of its digits was.  A zero-loop nest is a single point.
 */
struct LoopNest
{
    struct Loop
    {
        std::int64_t extent = 1;
        /** Affine loop: index j adds j * coef[e] to expression e. */
        std::vector<std::int64_t> coef;
        /** Table loop (non-empty): index j adds
         *  table[j * (number of expressions) + e] instead. */
        std::vector<std::int64_t> table;

        bool isTable() const { return !table.empty(); }
    };

    std::vector<Loop> loops;        ///< outermost first
    std::vector<std::int64_t> base; ///< one per expression
};

/**
 * Lower `exprs` over variables v_i in [0, domain.dim(i)) to a loop
 * nest (see file header).  Pure; cost is a few passes over the
 * expression trees, plus one evalExpr() per table entry and opaque
 * expression.
 */
LoopNest lowerToLoopNest(const std::vector<Expr> &exprs,
                         const ir::Shape &domain);

/** lowerToLoopNest(map.exprs(), map.outputShape()): coef and base are
 *  per input dimension of the map. */
LoopNest lowerToLoopNest(const IndexMap &map);

} // namespace smartmem::index

#endif // SMARTMEM_INDEX_LOOP_NEST_H
