// Penalty tests (§3.6): fixes must never exclude all optimal solutions
// strictly better than the incumbent; limit-bound theorem as a special case.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "gen/scp_gen.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "lagrangian/penalties.hpp"
#include "lagrangian/subgradient.hpp"
#include "solver/bnb.hpp"
#include "util/rng.hpp"

namespace {

using ucp::cov::Cost;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;

/// Exhaustive check: does an optimal solution exist that satisfies all fixes?
bool improving_solution_respects_fixes(const CoverMatrix& m, Cost z_best,
                                       const std::vector<Index>& fix_one,
                                       const std::vector<Index>& fix_zero) {
    const Index C = m.num_cols();
    // Find the optimum first.
    Cost best = z_best;
    for (std::uint32_t mask = 0; mask < (1u << C); ++mask) {
        std::vector<Index> sol;
        for (Index j = 0; j < C; ++j)
            if ((mask >> j) & 1) sol.push_back(j);
        if (m.is_feasible(sol)) best = std::min(best, m.solution_cost(sol));
    }
    if (best >= z_best) return true;  // no improving solution: fixes vacuous
    // Some improving solution must obey the fixes.
    for (std::uint32_t mask = 0; mask < (1u << C); ++mask) {
        std::vector<Index> sol;
        for (Index j = 0; j < C; ++j)
            if ((mask >> j) & 1) sol.push_back(j);
        if (!m.is_feasible(sol) || m.solution_cost(sol) != best) continue;
        bool ok = true;
        for (const Index j : fix_one)
            if (((mask >> j) & 1) == 0) ok = false;
        for (const Index j : fix_zero)
            if (((mask >> j) & 1) != 0) ok = false;
        if (ok) return true;
    }
    return false;
}

TEST(Penalties, LagrangianFixesPreserveOptima) {
    ucp::Rng seeds(41);
    for (int trial = 0; trial < 30; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 9;
        opt.cols = 11;
        opt.density = 0.25;
        opt.min_cost = 1;
        opt.max_cost = 3;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);
        const auto sub = ucp::lagr::subgradient_ascent(m);
        const auto pen = ucp::lagr::lagrangian_penalties(
            m, sub.lagrangian_costs, sub.lb_fractional, sub.best_cost);
        EXPECT_TRUE(improving_solution_respects_fixes(
            m, sub.best_cost, pen.fix_to_one, pen.fix_to_zero))
            << "seed " << opt.seed;
    }
}

TEST(Penalties, DualFixesPreserveOptima) {
    ucp::Rng seeds(43);
    for (int trial = 0; trial < 30; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 9;
        opt.cols = 11;
        opt.density = 0.25;
        opt.min_cost = 1;
        opt.max_cost = 4;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);
        const auto sub = ucp::lagr::subgradient_ascent(m);
        const auto pen =
            ucp::lagr::dual_penalties(m, sub.best_cost, sub.lambda);
        EXPECT_TRUE(improving_solution_respects_fixes(
            m, sub.best_cost, pen.fix_to_one, pen.fix_to_zero))
            << "seed " << opt.seed;
    }
}

TEST(Penalties, DualPenaltiesSkippedWhenTooManyColumns) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(12, 3);
    const auto pen = ucp::lagr::dual_penalties(m, 4, {}, /*max_cols=*/10);
    EXPECT_TRUE(pen.fix_to_one.empty());
    EXPECT_TRUE(pen.fix_to_zero.empty());
}

TEST(Penalties, DualPenaltyFixesObviousColumn) {
    // Glue example: forcing the glue column out makes the dual bound jump to
    // 4 (each row pays its private column) — with incumbent 3 the dual
    // penalty (5) must fix the glue column to one.
    const CoverMatrix m = ucp::gen::mis_vs_dual_example();
    const auto sub = ucp::lagr::subgradient_ascent(m);
    EXPECT_EQ(sub.best_cost, 2);
    const auto pen = ucp::lagr::dual_penalties(m, /*z_best=*/3, sub.lambda);
    bool glue_fixed = false;
    for (const Index j : pen.fix_to_one) glue_fixed |= (j == 4);
    EXPECT_TRUE(glue_fixed);
}

TEST(Penalties, DualProbesAnswerEqualOrLowerTargets) {
    // Probes recorded at one target answer that target and every lower one
    // exactly as a fresh run does — the SCG spine replay reuses them.
    ucp::Rng seeds(47);
    int reused = 0;
    for (int trial = 0; trial < 20; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 12;
        opt.cols = 16;
        opt.density = 0.22;
        opt.min_cost = 1;
        opt.max_cost = 4;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);
        const auto sub = ucp::lagr::subgradient_ascent(m);
        ucp::lagr::LagrangianWorkspace ws;
        ucp::lagr::DualProbes probes;
        const auto at = ucp::lagr::dual_penalties(m, ws, sub.best_cost,
                                                  sub.lambda, 100, true, &probes);
        ASSERT_EQ(probes.w_inf.size(), m.num_cols());
        EXPECT_EQ(probes.z_best, sub.best_cost);
        for (Cost target = sub.best_cost; target >= sub.best_cost - 2; --target) {
            const auto fresh = ucp::lagr::dual_penalties(m, ws, target, sub.lambda);
            const auto cached = ucp::lagr::dual_penalties(
                m, ws, target, sub.lambda, 100, true, &probes);
            EXPECT_EQ(cached.fix_to_one, fresh.fix_to_one) << "trial " << trial;
            EXPECT_EQ(cached.fix_to_zero, fresh.fix_to_zero) << "trial " << trial;
            ++reused;
        }
        EXPECT_EQ(at.fix_to_one,
                  ucp::lagr::dual_penalties(m, ws, sub.best_cost, sub.lambda)
                      .fix_to_one);
    }
    EXPECT_EQ(reused, 60);
}

TEST(Penalties, DualProbesIgnoredForHigherTarget) {
    // At target 0 every (5) probe passes, so no (6) value is recorded. A
    // higher target needs them: the probes must be ignored, not consulted.
    ucp::Rng seeds(53);
    int differs = 0;
    for (int trial = 0; trial < 20; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 12;
        opt.cols = 16;
        opt.density = 0.22;
        opt.min_cost = 1;
        opt.max_cost = 4;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);
        const auto sub = ucp::lagr::subgradient_ascent(m);
        ucp::lagr::LagrangianWorkspace ws;
        ucp::lagr::DualProbes probes;
        const auto low = ucp::lagr::dual_penalties(m, ws, 0, sub.lambda, 100,
                                                   true, &probes);
        EXPECT_EQ(low.fix_to_one.size(), m.num_cols());
        const auto fresh =
            ucp::lagr::dual_penalties(m, ws, sub.best_cost, sub.lambda);
        const auto cached = ucp::lagr::dual_penalties(
            m, ws, sub.best_cost, sub.lambda, 100, true, &probes);
        EXPECT_EQ(cached.fix_to_one, fresh.fix_to_one) << "trial " << trial;
        EXPECT_EQ(cached.fix_to_zero, fresh.fix_to_zero) << "trial " << trial;
        EXPECT_EQ(probes.z_best, 0);  // left as recorded
        if (fresh.fix_to_one.size() != m.num_cols()) ++differs;
    }
    EXPECT_GT(differs, 0);  // the sweep exercises the case that matters
}

TEST(Penalties, LimitBoundMatchesTheoremStatement) {
    // Theorem 2: column j not covering the MIS with LB + c_j ≥ z_best is
    // removable.
    const CoverMatrix m = CoverMatrix::from_rows(
        4, {{0, 1}, {2, 3}}, {2, 3, 2, 3});
    const auto mis = ucp::lagr::mis_lower_bound(m);
    EXPECT_EQ(mis.bound, 4);  // two disjoint rows, cheapest cost 2 each
    // z_best = 7: any column with cost ≥ 3 not in the MIS cols is removable —
    // but all columns cover MIS rows here, so nothing is removed.
    auto removed = ucp::lagr::limit_bound_removals(m, mis.rows, mis.bound, 7);
    EXPECT_TRUE(removed.empty());

    // Add a column covering nothing in the MIS: give row 0 an extra cover and
    // shrink the MIS to row 1 only.
    const CoverMatrix m2 = CoverMatrix::from_rows(
        3, {{0, 1, 2}, {2}}, {1, 5, 1});
    // MIS = {row 1} (row 0 and 1 intersect in col 2), bound = 1.
    const std::vector<Index> mis_rows{1};
    removed = ucp::lagr::limit_bound_removals(m2, mis_rows, 1, /*z_best=*/5);
    // Column 1 (cost 5) covers no row of the MIS and 1 + 5 ≥ 5 → removed;
    // column 0 (cost 1): 1 + 1 < 5 → kept.
    EXPECT_EQ(removed, (std::vector<Index>{1}));
}

TEST(Penalties, Proposition3DualSubsumesLimitBound) {
    // Every column removed by the limit-bound theorem is also removed by the
    // dual penalties (with the dual-ascent bound ≥ the MIS bound).
    ucp::Rng seeds(47);
    int compared = 0;
    for (int trial = 0; trial < 25; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 10;
        opt.cols = 12;
        opt.density = 0.22;
        opt.min_cost = 1;
        opt.max_cost = 5;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);
        const auto mis = ucp::lagr::mis_lower_bound(m);
        const Cost z_best = ucp::solver::solve_exact(m).cost + 1;
        const auto lb_removed =
            ucp::lagr::limit_bound_removals(m, mis.rows, mis.bound, z_best);
        if (lb_removed.empty()) continue;
        ++compared;
        // Warm-start the dual ascent with the MIS dual solution (the one the
        // theorem's proof constructs): it stays feasible under every c_j = 0
        // probe for columns outside the MIS, so the dual bound dominates.
        std::vector<double> warm(m.num_rows(), 0.0);
        for (const Index i : mis.rows) {
            Cost cheapest = std::numeric_limits<Cost>::max();
            for (const Index j : m.row(i)) cheapest = std::min(cheapest, m.cost(j));
            warm[i] = static_cast<double>(cheapest);
        }
        const auto pen = ucp::lagr::dual_penalties(m, z_best, warm);
        for (const Index j : lb_removed) {
            const bool also = std::find(pen.fix_to_zero.begin(),
                                        pen.fix_to_zero.end(),
                                        j) != pen.fix_to_zero.end();
            EXPECT_TRUE(also) << "col " << j << " seed " << opt.seed;
        }
    }
    EXPECT_GT(compared, 0);
}

}  // namespace
