// Reusable scratch buffers for the explicit Lagrangian phase.
//
// The subgradient loop (paper §3.2) touches a handful of dense row/column
// vectors every iteration: the Lagrangian costs c̃, the primal indicator p*,
// the subgradient s, the dual-side ẽ/m*/g, plus the dual-ascent and greedy
// scratch. Allocating them per iteration dominated the explicit phase on
// small cores (the SCG loop calls the engine thousands of times on matrices
// with a few hundred rows). A LagrangianWorkspace owns all of them; `fit()`
// grows a buffer only when the problem outgrows the previous high-water mark
// and counts every growth in the "lagr.workspace_allocs" stats counter — the
// perf tests pin that counter to 0 per iteration after warm-up.
//
// A workspace is single-threaded state: one per solver thread (the SCG
// multi-start runs keep one in their per-thread Work struct).
#pragma once

#include <vector>

#include "matrix/sparse_matrix.hpp"
#include "util/stats.hpp"

namespace ucp::lagr {

/// Resizes `v` to `n`, counting (and amortising) capacity growth. After the
/// first call at the largest size, subsequent calls never allocate.
template <class T>
inline void fit(std::vector<T>& v, std::size_t n) {
    if (v.capacity() < n) {
        static stats::Counter& c_allocs = stats::counter("lagr.workspace_allocs");
        c_allocs.add();
        v.reserve(n);
    }
    v.resize(n);
}

/// Row visit orders of the two dual-ascent phases: the live rows stably
/// sorted by decreasing (phase 1) and increasing (phase 2) live row size.
/// They depend only on the view, so a caller running many ascents on one
/// view (the dual penalty probes) builds them once.
struct DualAscentOrders {
    std::vector<cov::Index> decreasing, increasing;
};

struct LagrangianWorkspace {
    // subgradient_ascent
    std::vector<double> ctilde;  ///< c − A'λ (dead slots undefined)
    std::vector<char> p;         ///< p*_j = [c̃_j ≤ 0] (0 for dead columns)
    std::vector<double> cbar;    ///< c̄_i = min alive cost covering row i
    std::vector<double> m_star;  ///< dual inner solution (exactly 0.0 when dead)
    std::vector<double> etilde;  ///< e − Aµ
    std::vector<double> s;       ///< primal subgradient (exactly 0.0 when dead)
    std::vector<double> g;       ///< dual subgradient
    std::vector<double> orig_cost;
    // dual_ascent
    std::vector<double> da_cost, da_cbar, da_m, da_load;
    DualAscentOrders da_orders;
    // lagrangian_greedy
    std::vector<char> covered, selected;
    std::vector<double> row_weight;
    std::vector<cov::Index> greedy_nj;  ///< uncovered count per column (γ1–γ3)
    // dual_penalties probes
    std::vector<double> probe_cost;

    /// Reserved footprint in bytes across every scratch buffer
    /// (memory-budget accounting — util/mem_budget.hpp).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        const std::size_t doubles =
            ctilde.capacity() + cbar.capacity() + m_star.capacity() +
            etilde.capacity() + s.capacity() + g.capacity() +
            orig_cost.capacity() + da_cost.capacity() + da_cbar.capacity() +
            da_m.capacity() + da_load.capacity() + row_weight.capacity() +
            probe_cost.capacity();
        const std::size_t chars =
            p.capacity() + covered.capacity() + selected.capacity();
        const std::size_t indices =
            da_orders.decreasing.capacity() +
            da_orders.increasing.capacity() + greedy_nj.capacity();
        return doubles * sizeof(double) + chars * sizeof(char) +
               indices * sizeof(cov::Index);
    }
};

}  // namespace ucp::lagr
