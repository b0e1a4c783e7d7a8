// Penalty tests (paper §3.6): implicit branching on a column, pruning one of
// the two subproblems with a bound.
//
// Lagrangian penalties — O(columns), from the best Lagrangian point (λ, c̃):
//   (3)  c̃_j ≤ 0  and  z_LP − c̃_j ≥ z_best  ⇒  p_j = 1 in every improving
//        solution (fix the column);
//   (4)  c̃_j > 0  and  z_LP + c̃_j ≥ z_best  ⇒  p_j = 0 (remove the column).
//
// Dual penalties — heavier (one dual-ascent run per probed column):
//   (5)  w_D|_{c_j = +∞} ≥ z_best  ⇒  p_j = 1;
//   (6)  w_D|_{c_j = 0} + c_j ≥ z_best  ⇒  p_j = 0.
// They generalise the limit-bound theorem (Theorem 2 / Proposition 3): the
// tests subsume the classical independent-set limit bound and, with
// non-uniform costs, can also *fix* columns.
#pragma once

#include <vector>

#include "lagrangian/workspace.hpp"
#include "matrix/sparse_matrix.hpp"

namespace ucp::lagr {

struct PenaltyResult {
    std::vector<cov::Index> fix_to_one;   ///< columns proven in (some) optimum
    std::vector<cov::Index> fix_to_zero;  ///< columns proven out
};

/// Lagrangian penalties from a Lagrangian point. `z_lp` is z_LP(λ) (the
/// fractional bound), `ctilde` the Lagrangian costs at λ, `z_best` the
/// incumbent value. With integer costs the comparisons use ⌈·⌉.
/// `Matrix` is CoverMatrix or SubMatrix (only alive columns are probed;
/// returned indices are base indices).
template <class Matrix>
PenaltyResult lagrangian_penalties(const Matrix& a,
                                   const std::vector<double>& ctilde, double z_lp,
                                   cov::Cost z_best, bool integer_costs = true);

/// The probe values of one dual_penalties call, per base column (NaN where
/// no probe ran): w_inf[j] = w_D|_{c_j = +∞} and w_zero[j] = w_D|_{c_j = 0}
/// + c_j, taken at target `z_best`. For the same view and warm start they
/// answer every target ≤ z_best: a column whose (5) value reached z_best
/// reaches any lower target, and every other column has its (6) value.
/// Empty until recorded.
struct DualProbes {
    cov::Cost z_best = 0;
    std::vector<double> w_inf, w_zero;
};

/// Dual penalties via dual-ascent re-runs. Probes every (alive) column when
/// the live column count is ≤ max_cols (the paper's DualPen = 100 guard),
/// otherwise returns empty. `warm` optionally warm-starts the dual ascent
/// (the best λ). Probe cost vectors come from `ws`.
///
/// `probes` (optional) memoises the probe values of this view and warm
/// start: an empty one is filled; a filled one taken at a target ≥ `z_best`
/// answers without any dual ascent; one taken at a lower target lacks (6)
/// values the tests may need, so it is ignored and left as it is. The
/// caller keeps it only while the view and `warm` are unchanged.
template <class Matrix>
PenaltyResult dual_penalties(const Matrix& a, LagrangianWorkspace& ws,
                             cov::Cost z_best,
                             const std::vector<double>& warm = {},
                             std::size_t max_cols = 100,
                             bool integer_costs = true,
                             DualProbes* probes = nullptr);

/// Convenience overload with a throwaway workspace.
PenaltyResult dual_penalties(const cov::CoverMatrix& a, cov::Cost z_best,
                             const std::vector<double>& warm = {},
                             std::size_t max_cols = 100,
                             bool integer_costs = true);

/// The classical limit-bound theorem (Theorem 2), kept as a baseline for the
/// Proposition 3 experiments: given an independent set's bound LB_mis,
/// removes columns j covering no row of `mis_rows` with LB + c_j ≥ z_best.
std::vector<cov::Index> limit_bound_removals(const cov::CoverMatrix& a,
                                             const std::vector<cov::Index>& mis_rows,
                                             cov::Cost lb_mis, cov::Cost z_best);

}  // namespace ucp::lagr
