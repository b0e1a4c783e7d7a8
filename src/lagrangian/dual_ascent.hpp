// Dual-ascent heuristic for the LP dual of unate covering (paper §3.5):
//
//   (D)  max e'm   s.t.  A'm ≤ c,  0 ≤ m ≤ c̄,   c̄_i = min_{j: a_ij=1} c_j
//
// Phase 1 starts from m_i = c̄_i (individually maximal) and decreases the
// variables — most-covered rows first — until every dual constraint holds.
// Phase 2 re-increases them in increasing occurrence order while keeping
// feasibility. Any feasible m yields the lower bound w(m) = Σ m_i ≤ z*_P and
// is a valid Lagrangian multiplier vector (paper §3.3); with uniform costs
// the result is equivalent to a maximal-independent-set bound (Prop. 1).
#pragma once

#include <vector>

#include "lagrangian/workspace.hpp"
#include "matrix/sparse_matrix.hpp"
#include "util/budget.hpp"

namespace ucp::lagr {

struct DualAscentResult {
    std::vector<double> m;  ///< dual-feasible solution, one value per row
                            ///< (base-sized; exactly 0.0 on dead rows)
    double value = 0.0;     ///< w(m) = Σ m_i, a lower bound on z*_P
};

/// Runs the two-phase dual ascent. If `warm_start` is non-empty it replaces
/// the m_i = c̄_i initialisation (it need not be feasible; phase 1 repairs it).
/// `cost_override` (optional, same size as columns) replaces the cost vector —
/// used by the dual penalty tests which probe c_j = 0 / c_j = +∞.
///
/// `Matrix` is CoverMatrix or SubMatrix; on a live view the dead rows and
/// columns are skipped and the result is bit-identical to running on the
/// compacted matrix (monotone renumbering, see DESIGN.md §7). Scratch comes
/// from `ws` — no allocations after the workspace warm-up.
///
/// If `governor` is set and has tripped (deadline/cancel), phase 2 is skipped:
/// the phase-1 repair always runs to completion because only a fully repaired
/// m is dual feasible, and the early return is then still a valid (merely
/// weaker) lower bound. No exception escapes this function.
template <class Matrix>
DualAscentResult dual_ascent(const Matrix& a, LagrangianWorkspace& ws,
                             const std::vector<double>& warm_start = {},
                             const std::vector<double>& cost_override = {},
                             Budget* governor = nullptr);

/// Fills `out` with the two phases' row orders for `a` (scratch sized with
/// fit(), so it can live in a workspace).
template <class Matrix>
void build_dual_ascent_orders(const Matrix& a, DualAscentOrders& out);

/// The same ascent with row orders the caller built for this view with
/// build_dual_ascent_orders. The plain overload above rebuilds
/// `ws.da_orders` on every call; this one never touches it, so a caller
/// may keep its orders there.
template <class Matrix>
DualAscentResult dual_ascent(const Matrix& a, LagrangianWorkspace& ws,
                             const DualAscentOrders& orders,
                             const std::vector<double>& warm_start,
                             const std::vector<double>& cost_override,
                             Budget* governor = nullptr);

/// Convenience overload with a throwaway workspace.
DualAscentResult dual_ascent(const cov::CoverMatrix& a,
                             const std::vector<double>& warm_start = {},
                             const std::vector<double>& cost_override = {});

/// Classical maximal-independent-set lower bound (greedy MIS on the row
/// intersection graph, rows sorted by cheapest-covering-column cost then by
/// degree). Returned as the bound value plus the chosen row set.
struct MisResult {
    std::vector<cov::Index> rows;
    cov::Cost bound = 0;
};
MisResult mis_lower_bound(const cov::CoverMatrix& a);

}  // namespace ucp::lagr
