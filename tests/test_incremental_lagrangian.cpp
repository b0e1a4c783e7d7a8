// The allocation-free incremental Lagrangian engine: running on a SubMatrix
// live view must be BIT-identical (exact double equality, not approximate) to
// running on the compacted matrix, because the SCG fixing loop relies on it to
// keep solver outputs independent of when the base gets re-compacted. Also
// pins the allocation-free property: a warmed-up workspace never grows again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gen/scp_gen.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "lagrangian/penalties.hpp"
#include "lagrangian/subgradient.hpp"
#include "matrix/sub_matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::cov::SubMatrix;
using ucp::lagr::LagrangianWorkspace;

/// Randomly kills rows / removes columns of `v`, never leaving an alive row
/// without an alive column. Roughly `frac` of each side goes away.
void random_shrink(SubMatrix& v, ucp::Rng& rng, double frac) {
    const Index R = v.num_rows();
    const Index C = v.num_cols();
    for (Index i = 0; i < R; ++i) {
        if (v.num_live_rows() <= 2) break;
        if (v.row_alive(i) && rng.below(100) < static_cast<std::uint64_t>(frac * 100))
            v.kill_row(i, [](Index) {});
    }
    for (Index j = 0; j < C; ++j) {
        if (!v.col_alive(j)) continue;
        if (rng.below(100) >= static_cast<std::uint64_t>(frac * 100)) continue;
        bool safe = true;
        for (const Index i : v.col(j))
            if (v.row_alive(i) && v.live_row_size(i) <= 1) {
                safe = false;
                break;
            }
        if (safe && v.num_live_cols() > 2) v.remove_col(j, [](Index) {});
    }
}

CoverMatrix random_instance(std::uint64_t seed, int trial) {
    ucp::gen::RandomScpOptions opt;
    opt.rows = 10 + trial % 21;
    opt.cols = 15 + trial % 33;
    opt.density = 0.15 + 0.01 * (trial % 10);
    opt.min_cost = 1;
    opt.max_cost = 1 + trial % 6;
    opt.seed = seed;
    return ucp::gen::random_scp(opt);
}

TEST(IncrementalLagrangian, ViewMatchesCompactBitForBit) {
    ucp::Rng seeds(0xfeedbee5);
    LagrangianWorkspace ws_view, ws_compact;
    int compared = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const CoverMatrix m = random_instance(seeds(), trial);
        SubMatrix v(m);
        ucp::Rng shrink_rng(seeds());
        random_shrink(v, shrink_rng, 0.3);

        std::vector<Index> col_map, row_map;
        const CoverMatrix compact = v.compact(col_map, row_map);
        if (compact.num_rows() == 0) continue;
        ++compared;

        // Deterministic warm starts exercising the non-empty λ0/µ0 paths.
        ucp::Rng warm_rng(seeds());
        std::vector<double> lam_base(m.num_rows(), 0.0);
        std::vector<double> mu_base(m.num_cols(), 0.0);
        for (Index i = 0; i < m.num_rows(); ++i)
            if (v.row_alive(i))
                lam_base[i] = static_cast<double>(warm_rng.below(100)) / 50.0;
        for (Index j = 0; j < m.num_cols(); ++j)
            if (v.col_alive(j))
                mu_base[j] = static_cast<double>(warm_rng.below(100)) / 100.0;
        std::vector<double> lam_c(compact.num_rows());
        std::vector<double> mu_c(compact.num_cols());
        for (Index i = 0; i < compact.num_rows(); ++i)
            lam_c[i] = lam_base[row_map[i]];
        for (Index j = 0; j < compact.num_cols(); ++j)
            mu_c[j] = mu_base[col_map[j]];

        // ---- dual ascent -------------------------------------------------------
        const auto da_v = ucp::lagr::dual_ascent(v, ws_view, lam_base);
        const auto da_c = ucp::lagr::dual_ascent(compact, ws_compact, lam_c);
        EXPECT_EQ(da_v.value, da_c.value) << "trial " << trial;
        for (Index i = 0; i < compact.num_rows(); ++i)
            EXPECT_EQ(da_v.m[row_map[i]], da_c.m[i]) << "trial " << trial;

        // ---- subgradient -------------------------------------------------------
        ucp::lagr::SubgradientOptions sopt;
        sopt.max_iterations = 80;
        const auto sg_v = ucp::lagr::subgradient_ascent(v, ws_view, sopt,
                                                        lam_base, mu_base);
        const auto sg_c = ucp::lagr::subgradient_ascent(compact, ws_compact,
                                                        sopt, lam_c, mu_c);
        EXPECT_EQ(sg_v.lb_fractional, sg_c.lb_fractional) << "trial " << trial;
        EXPECT_EQ(sg_v.lb, sg_c.lb);
        EXPECT_EQ(sg_v.best_cost, sg_c.best_cost);
        EXPECT_EQ(sg_v.w_ld_best, sg_c.w_ld_best);
        EXPECT_EQ(sg_v.iterations, sg_c.iterations);
        EXPECT_EQ(sg_v.proved_optimal, sg_c.proved_optimal);
        ASSERT_EQ(sg_v.best_solution.size(), sg_c.best_solution.size());
        for (std::size_t k = 0; k < sg_c.best_solution.size(); ++k)
            EXPECT_EQ(sg_v.best_solution[k], col_map[sg_c.best_solution[k]]);
        for (Index i = 0; i < compact.num_rows(); ++i)
            EXPECT_EQ(sg_v.lambda[row_map[i]], sg_c.lambda[i]);
        for (Index j = 0; j < compact.num_cols(); ++j) {
            EXPECT_EQ(sg_v.mu[col_map[j]], sg_c.mu[j]);
            EXPECT_EQ(sg_v.lagrangian_costs[col_map[j]],
                      sg_c.lagrangian_costs[j]);
        }

        // ---- penalties ---------------------------------------------------------
        const auto lp_v = ucp::lagr::lagrangian_penalties(
            v, sg_v.lagrangian_costs, sg_v.lb_fractional, sg_v.best_cost + 1);
        const auto lp_c = ucp::lagr::lagrangian_penalties(
            compact, sg_c.lagrangian_costs, sg_c.lb_fractional,
            sg_c.best_cost + 1);
        ASSERT_EQ(lp_v.fix_to_one.size(), lp_c.fix_to_one.size());
        ASSERT_EQ(lp_v.fix_to_zero.size(), lp_c.fix_to_zero.size());
        for (std::size_t k = 0; k < lp_c.fix_to_one.size(); ++k)
            EXPECT_EQ(lp_v.fix_to_one[k], col_map[lp_c.fix_to_one[k]]);
        for (std::size_t k = 0; k < lp_c.fix_to_zero.size(); ++k)
            EXPECT_EQ(lp_v.fix_to_zero[k], col_map[lp_c.fix_to_zero[k]]);

        const auto dp_v = ucp::lagr::dual_penalties(v, ws_view,
                                                    sg_v.best_cost + 1,
                                                    sg_v.lambda);
        const auto dp_c = ucp::lagr::dual_penalties(compact, ws_compact,
                                                    sg_c.best_cost + 1,
                                                    sg_c.lambda);
        ASSERT_EQ(dp_v.fix_to_one.size(), dp_c.fix_to_one.size());
        for (std::size_t k = 0; k < dp_c.fix_to_one.size(); ++k)
            EXPECT_EQ(dp_v.fix_to_one[k], col_map[dp_c.fix_to_one[k]]);
        ASSERT_EQ(dp_v.fix_to_zero.size(), dp_c.fix_to_zero.size());
        for (std::size_t k = 0; k < dp_c.fix_to_zero.size(); ++k)
            EXPECT_EQ(dp_v.fix_to_zero[k], col_map[dp_c.fix_to_zero[k]]);

        // ---- greedy ------------------------------------------------------------
        const auto gr_v = ucp::lagr::lagrangian_greedy(
            v, ws_view, sg_v.lagrangian_costs,
            ucp::lagr::GreedyVariant::kCoverageWeighted);
        const auto gr_c = ucp::lagr::lagrangian_greedy(
            compact, ws_compact, sg_c.lagrangian_costs,
            ucp::lagr::GreedyVariant::kCoverageWeighted);
        ASSERT_EQ(gr_v.size(), gr_c.size());
        for (std::size_t k = 0; k < gr_c.size(); ++k)
            EXPECT_EQ(gr_v[k], col_map[gr_c[k]]);
    }
    // The shrink is randomised but mild; the sweep must actually compare.
    EXPECT_GT(compared, 150);
}

TEST(IncrementalLagrangian, WorkspaceStopsAllocatingAfterWarmup) {
    auto& allocs = ucp::stats::counter("lagr.workspace_allocs");
    LagrangianWorkspace ws;
    const CoverMatrix m = random_instance(0xabcdef12, 7);
    ucp::lagr::SubgradientOptions sopt;
    sopt.max_iterations = 60;

    // Warm-up: the first run may grow every buffer.
    const auto first = ucp::lagr::subgradient_ascent(m, ws, sopt);
    const std::uint64_t after_warmup = allocs.value();
    EXPECT_GT(after_warmup, 0u);

    // Steady state: same-size reruns must not grow the workspace at all —
    // this is the "zero allocations per iteration after warm-up" property.
    for (int rep = 0; rep < 3; ++rep) {
        const auto again = ucp::lagr::subgradient_ascent(m, ws, sopt);
        EXPECT_EQ(again.lb_fractional, first.lb_fractional);
        EXPECT_EQ(again.best_cost, first.best_cost);
        EXPECT_EQ(allocs.value(), after_warmup) << "rep " << rep;
    }

    // A smaller problem fits in the warmed workspace: still no growth.
    ucp::gen::RandomScpOptions small;
    small.rows = 8;
    small.cols = 10;
    small.density = 0.3;
    small.seed = 99;
    const CoverMatrix s = ucp::gen::random_scp(small);
    (void)ucp::lagr::subgradient_ascent(s, ws, sopt);
    EXPECT_EQ(allocs.value(), after_warmup);
}

TEST(IncrementalLagrangian, WorkspaceReuseDoesNotChangeResults) {
    // One shared workspace across many different matrices must give the same
    // answers as a fresh workspace per call (buffers carry no state between
    // calls, only capacity).
    ucp::Rng seeds(0x5ca1ab1e);
    LagrangianWorkspace shared;
    for (int trial = 0; trial < 25; ++trial) {
        const CoverMatrix m = random_instance(seeds(), trial);
        ucp::lagr::SubgradientOptions sopt;
        sopt.max_iterations = 60;
        LagrangianWorkspace fresh;
        const auto a = ucp::lagr::subgradient_ascent(m, shared, sopt);
        const auto b = ucp::lagr::subgradient_ascent(m, fresh, sopt);
        EXPECT_EQ(a.lb_fractional, b.lb_fractional) << "trial " << trial;
        EXPECT_EQ(a.best_cost, b.best_cost);
        EXPECT_EQ(a.w_ld_best, b.w_ld_best);
        EXPECT_EQ(a.lambda, b.lambda);
        EXPECT_EQ(a.mu, b.mu);
        EXPECT_EQ(a.best_solution, b.best_solution);
    }
}

/// Fills every buffer of `ws` with values no engine could have left there.
void poison(LagrangianWorkspace& ws) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (auto* v : {&ws.ctilde, &ws.cbar, &ws.m_star, &ws.etilde, &ws.s, &ws.g,
                    &ws.orig_cost, &ws.da_cost, &ws.da_cbar, &ws.da_m,
                    &ws.da_load, &ws.row_weight, &ws.probe_cost})
        std::fill(v->begin(), v->end(), nan);
    for (auto* v : {&ws.p, &ws.covered, &ws.selected})
        std::fill(v->begin(), v->end(), char{7});
    for (auto* v : {&ws.da_orders.decreasing, &ws.da_orders.increasing,
                    &ws.greedy_nj})
        std::fill(v->begin(), v->end(), Index{12345});
}

TEST(IncrementalLagrangian, DirtyWorkspaceOnViewMatchesFresh) {
    // The SCG spine replay hands a later run the ascent run 1 computed with
    // a workspace in a different state. That is exact only because the
    // engines are pure functions of (view, warm start): whatever a previous
    // call left in the workspace never reaches a result. Dead slots of c̃
    // are documented as undefined and never read, so only alive ones count.
    ucp::Rng seeds(0xd1a7);
    int compared = 0;
    for (int trial = 0; trial < 30; ++trial) {
        const CoverMatrix m = random_instance(seeds(), trial);
        SubMatrix v(m);
        random_shrink(v, seeds, 0.25);
        if (v.num_live_rows() == 0) continue;

        LagrangianWorkspace dirty;
        (void)ucp::lagr::subgradient_ascent(random_instance(seeds(), trial + 7),
                                            dirty);
        poison(dirty);
        LagrangianWorkspace fresh;

        const auto da_d = ucp::lagr::dual_ascent(v, dirty);
        const auto da_f = ucp::lagr::dual_ascent(v, fresh);
        EXPECT_EQ(da_d.m, da_f.m) << "trial " << trial;
        EXPECT_EQ(da_d.value, da_f.value);

        ucp::lagr::SubgradientOptions sopt;
        sopt.max_iterations = 80;
        std::vector<double> mu0(v.num_cols(), 0.5);
        poison(dirty);
        const auto sg_d =
            ucp::lagr::subgradient_ascent(v, dirty, sopt, da_f.m, mu0);
        const auto sg_f =
            ucp::lagr::subgradient_ascent(v, fresh, sopt, da_f.m, mu0);
        EXPECT_EQ(sg_d.lambda, sg_f.lambda) << "trial " << trial;
        EXPECT_EQ(sg_d.mu, sg_f.mu);
        EXPECT_EQ(sg_d.lb_fractional, sg_f.lb_fractional);
        EXPECT_EQ(sg_d.lb, sg_f.lb);
        EXPECT_EQ(sg_d.w_ld_best, sg_f.w_ld_best);
        EXPECT_EQ(sg_d.best_solution, sg_f.best_solution);
        EXPECT_EQ(sg_d.best_cost, sg_f.best_cost);
        EXPECT_EQ(sg_d.iterations, sg_f.iterations);
        EXPECT_EQ(sg_d.proved_optimal, sg_f.proved_optimal);
        for (Index j = 0; j < v.num_cols(); ++j) {
            if (!v.col_alive(j)) continue;
            EXPECT_EQ(sg_d.lagrangian_costs[j], sg_f.lagrangian_costs[j])
                << "trial " << trial << " col " << j;
        }

        poison(dirty);
        const auto dp_d = ucp::lagr::dual_penalties(v, dirty, sg_f.best_cost,
                                                    sg_f.lambda);
        const auto dp_f = ucp::lagr::dual_penalties(v, fresh, sg_f.best_cost,
                                                    sg_f.lambda);
        EXPECT_EQ(dp_d.fix_to_one, dp_f.fix_to_one) << "trial " << trial;
        EXPECT_EQ(dp_d.fix_to_zero, dp_f.fix_to_zero);
        ++compared;
    }
    EXPECT_GT(compared, 20);
}

TEST(IncrementalLagrangian, PrebuiltDualAscentOrdersMatchPlainCall) {
    // dual_penalties builds the row orders once and probes many cost vectors
    // with them; each probe must equal a plain call that sorts for itself.
    ucp::Rng seeds(0x0bde);
    for (int trial = 0; trial < 20; ++trial) {
        const CoverMatrix m = random_instance(seeds(), trial);
        SubMatrix v(m);
        random_shrink(v, seeds, 0.2);
        LagrangianWorkspace ws;
        ucp::lagr::DualAscentOrders orders;
        ucp::lagr::build_dual_ascent_orders(v, orders);
        std::vector<double> cost(v.num_cols(), 0.0);
        for (Index j = 0; j < v.num_cols(); ++j)
            cost[j] = static_cast<double>(v.cost(j));
        for (Index j = 0; j < v.num_cols(); ++j) {
            if (!v.col_alive(j)) continue;
            const double cj = cost[j];
            for (const double probe :
                 {0.0, std::numeric_limits<double>::infinity()}) {
                cost[j] = probe;
                const auto a = ucp::lagr::dual_ascent(v, ws, orders, {}, cost);
                const auto b = ucp::lagr::dual_ascent(v, ws, {}, cost);
                EXPECT_EQ(a.m, b.m) << "trial " << trial << " col " << j;
                EXPECT_EQ(a.value, b.value);
            }
            cost[j] = cj;
        }
    }
}

/// Straightforward greedy with n_j recomputed from scratch at every pick —
/// the reference the incremental bookkeeping in lagrangian_greedy must match
/// pick for pick (same scores, same ascending-index tie-break).
std::vector<Index> reference_greedy(const CoverMatrix& a,
                                    const std::vector<double>& ctilde,
                                    ucp::lagr::GreedyVariant variant) {
    using ucp::lagr::GreedyVariant;
    const Index R = a.num_rows();
    const Index C = a.num_cols();
    std::vector<char> covered(R, 0), selected(C, 0);
    Index uncovered = R;
    auto take = [&](Index j) {
        if (selected[j] != 0) return;
        selected[j] = 1;
        for (const Index i : a.col(j))
            if (covered[i] == 0) {
                covered[i] = 1;
                --uncovered;
            }
    };
    for (Index j = 0; j < C; ++j)
        if (ctilde[j] <= 0.0) take(j);
    std::vector<double> row_weight(R, 0.0);
    for (Index i = 0; i < R; ++i) {
        const std::size_t k = a.row(i).size();
        row_weight[i] = k <= 1 ? 1e9 : 1.0 / static_cast<double>(k - 1);
    }
    while (uncovered > 0) {
        Index best = C;
        double best_score = std::numeric_limits<double>::infinity();
        for (Index j = 0; j < C; ++j) {
            if (selected[j] != 0) continue;
            Index nj = 0;
            double wj = 0.0;
            for (const Index i : a.col(j))
                if (covered[i] == 0) {
                    ++nj;
                    wj += row_weight[i];
                }
            if (nj == 0) continue;
            const double c = std::max(ctilde[j], 1e-9);
            double s = c / static_cast<double>(nj);
            switch (variant) {
                case GreedyVariant::kCostOverRows:
                    break;
                case GreedyVariant::kCostOverLog:
                    s = c / std::log2(static_cast<double>(nj) + 1.0);
                    break;
                case GreedyVariant::kCostOverRowsLog:
                    s = c / (static_cast<double>(nj) *
                             std::log2(static_cast<double>(nj) + 1.0));
                    break;
                case GreedyVariant::kCoverageWeighted:
                    s = c / wj;
                    break;
            }
            if (s < best_score) {
                best_score = s;
                best = j;
            }
        }
        take(best);
    }
    std::vector<Index> solution;
    for (Index j = 0; j < C; ++j)
        if (selected[j] != 0) solution.push_back(j);
    return a.make_irredundant(std::move(solution));
}

TEST(IncrementalLagrangian, GreedyIncrementalCountsMatchReference) {
    ucp::Rng seeds(0xdecade);
    LagrangianWorkspace ws;
    for (int trial = 0; trial < 60; ++trial) {
        const CoverMatrix m = random_instance(seeds(), trial);
        // Synthetic Lagrangian costs: a mix of non-positive (taken up front)
        // and positive values, like a mid-ascent c̃.
        ucp::Rng cost_rng(seeds());
        std::vector<double> ctilde(m.num_cols());
        for (Index j = 0; j < m.num_cols(); ++j)
            ctilde[j] = static_cast<double>(m.cost(j)) -
                        static_cast<double>(cost_rng.below(200)) / 40.0;
        for (int v = 0; v < ucp::lagr::kNumGreedyVariants; ++v) {
            const auto variant = static_cast<ucp::lagr::GreedyVariant>(v);
            EXPECT_EQ(ucp::lagr::lagrangian_greedy(m, ws, ctilde, variant),
                      reference_greedy(m, ctilde, variant))
                << "trial " << trial << " variant " << v;
        }
    }
}

}  // namespace
