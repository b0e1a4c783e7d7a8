#include "lagrangian/penalties.hpp"

#include <cmath>
#include <limits>

#include "lagrangian/dual_ascent.hpp"
#include "matrix/sub_matrix.hpp"
#include "util/trace.hpp"

namespace ucp::lagr {

using cov::Cost;
using cov::CoverMatrix;
using cov::Index;
using cov::SubMatrix;

namespace {

double effective_bound(double v, bool integer_costs) {
    return integer_costs ? std::ceil(v - 1e-6) : v;
}

}  // namespace

template <class Matrix>
PenaltyResult lagrangian_penalties(const Matrix& a,
                                   const std::vector<double>& ctilde, double z_lp,
                                   Cost z_best, bool integer_costs) {
    UCP_REQUIRE(ctilde.size() == a.num_cols(), "ctilde size mismatch");
    TRACE_SPAN("penalties.lagrangian");
    PenaltyResult out;
    const auto zb = static_cast<double>(z_best);
    for (Index j = 0; j < a.num_cols(); ++j) {
        if (!a.col_alive(j)) continue;
        if (ctilde[j] <= 0.0) {
            // (3): forcing p_j = 0 costs at least z_LP − c̃_j.
            if (effective_bound(z_lp - ctilde[j], integer_costs) >= zb)
                out.fix_to_one.push_back(j);
        } else {
            // (4): forcing p_j = 1 costs at least z_LP + c̃_j.
            if (effective_bound(z_lp + ctilde[j], integer_costs) >= zb)
                out.fix_to_zero.push_back(j);
        }
    }
    return out;
}

template PenaltyResult lagrangian_penalties<CoverMatrix>(
    const CoverMatrix&, const std::vector<double>&, double, Cost, bool);
template PenaltyResult lagrangian_penalties<SubMatrix>(
    const SubMatrix&, const std::vector<double>&, double, Cost, bool);

template <class Matrix>
PenaltyResult dual_penalties(const Matrix& a, LagrangianWorkspace& ws,
                             Cost z_best, const std::vector<double>& warm,
                             std::size_t max_cols, bool integer_costs,
                             DualProbes* probes) {
    TRACE_SPAN("penalties.dual");
    PenaltyResult out;
    const Index C = a.num_cols();
    if (a.num_live_cols() > max_cols) return out;  // paper: skipped when too many columns

    const auto zb = static_cast<double>(z_best);
    const auto reaches = [&](double w) {
        return effective_bound(w, integer_costs) >= zb;
    };
    if (probes != nullptr && !probes->w_inf.empty() &&
        z_best <= probes->z_best) {
        for (Index j = 0; j < C; ++j) {
            if (!a.col_alive(j)) continue;
            if (reaches(probes->w_inf[j]))
                out.fix_to_one.push_back(j);
            else if (reaches(probes->w_zero[j]))
                out.fix_to_zero.push_back(j);
        }
        return out;
    }
    DualProbes* const record =
        probes != nullptr && probes->w_inf.empty() ? probes : nullptr;
    if (record != nullptr) {
        record->z_best = z_best;
        record->w_inf.assign(C, std::numeric_limits<double>::quiet_NaN());
        record->w_zero.assign(C, std::numeric_limits<double>::quiet_NaN());
    }

    fit(ws.probe_cost, C);
    std::vector<double>& cost = ws.probe_cost;
    for (Index j = 0; j < C; ++j)
        if (a.col_alive(j)) cost[j] = static_cast<double>(a.cost(j));
    // Every probe runs on this view; only the cost vector changes.
    build_dual_ascent_orders(a, ws.da_orders);

    for (Index j = 0; j < C; ++j) {
        if (!a.col_alive(j)) continue;
        const double cj = cost[j];
        // (5): relax constraint j (c_j = +∞). If even then the dual bound
        // reaches z_best, no improving solution omits column j.
        {
            cost[j] = std::numeric_limits<double>::infinity();
            const double w = dual_ascent(a, ws, ws.da_orders, warm, cost).value;
            cost[j] = cj;
            if (record != nullptr) record->w_inf[j] = w;
            if (reaches(w)) {
                out.fix_to_one.push_back(j);
                continue;
            }
        }
        // (6): take column j for free (c_j = 0) and pay c_j: if the dual bound
        // of the remainder plus c_j reaches z_best, no improving solution
        // includes column j.
        {
            cost[j] = 0.0;
            const double w =
                dual_ascent(a, ws, ws.da_orders, warm, cost).value + cj;
            cost[j] = cj;
            if (record != nullptr) record->w_zero[j] = w;
            if (reaches(w)) out.fix_to_zero.push_back(j);
        }
    }
    return out;
}

template PenaltyResult dual_penalties<CoverMatrix>(
    const CoverMatrix&, LagrangianWorkspace&, Cost, const std::vector<double>&,
    std::size_t, bool, DualProbes*);
template PenaltyResult dual_penalties<SubMatrix>(
    const SubMatrix&, LagrangianWorkspace&, Cost, const std::vector<double>&,
    std::size_t, bool, DualProbes*);

PenaltyResult dual_penalties(const CoverMatrix& a, Cost z_best,
                             const std::vector<double>& warm,
                             std::size_t max_cols, bool integer_costs) {
    LagrangianWorkspace ws;
    return dual_penalties(a, ws, z_best, warm, max_cols, integer_costs);
}

std::vector<Index> limit_bound_removals(const CoverMatrix& a,
                                        const std::vector<Index>& mis_rows,
                                        Cost lb_mis, Cost z_best) {
    std::vector<bool> in_mis_cols(a.num_cols(), false);
    for (const Index i : mis_rows)
        for (const Index j : a.row(i)) in_mis_cols[j] = true;

    std::vector<Index> removed;
    for (Index j = 0; j < a.num_cols(); ++j) {
        if (in_mis_cols[j]) continue;  // covers an element of the MIS
        if (lb_mis + a.cost(j) >= z_best) removed.push_back(j);
    }
    return removed;
}

}  // namespace ucp::lagr
