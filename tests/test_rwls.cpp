// RWLS invariants: the incremental score and cover-set XOR maintenance
// against a from-scratch recompute (differential audit), one pinned search
// trajectory, the allocation-free workspace pin, feasibility under Budget
// truncation, determinism, warm starts, and the SubMatrix live-view overload.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "matrix/reductions.hpp"
#include "matrix/sub_matrix.hpp"
#include "search/rwls.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ucp::Budget;
using ucp::BudgetOptions;
using ucp::Status;
using ucp::cov::Cost;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::search::RwlsOptions;
using ucp::search::RwlsResult;
using ucp::search::RwlsWorkspace;
using ucp::search::rwls_improve;

CoverMatrix unicost(std::uint64_t seed, Index rows = 60, Index cols = 40,
                    Index k = 3) {
    ucp::gen::UnicostScpOptions g;
    g.rows = rows;
    g.cols = cols;
    g.cols_per_row = k;
    g.seed = seed;
    return ucp::gen::unicost_scp(g);
}

TEST(Rwls, FindsFeasibleCoverFromScratch) {
    const CoverMatrix m = unicost(1);
    RwlsOptions opt;
    opt.max_steps = 2000;
    const RwlsResult r = rwls_improve(m, opt);
    ASSERT_TRUE(m.is_feasible(r.solution));
    EXPECT_EQ(r.cost, m.solution_cost(r.solution));
    EXPECT_EQ(r.status, Status::kOk);
    // No worse than plain greedy: the start IS a greedy cover.
    EXPECT_LE(r.cost, ucp::solver::chvatal_greedy(m).cost);
}

TEST(Rwls, IncrementalScoresMatchRecomputeOnRandomInstances) {
    ucp::Rng seeds(4242);
    for (int trial = 0; trial < 8; ++trial) {
        const CoverMatrix m =
            unicost(seeds(), static_cast<Index>(40 + 20 * (trial % 3)),
                    static_cast<Index>(30 + 10 * (trial % 4)),
                    static_cast<Index>(3 + trial % 2));
        RwlsOptions opt;
        opt.seed = 99 + static_cast<std::uint64_t>(trial);
        opt.max_steps = 1500;
        opt.audit_every = 1;  // recompute-and-compare after every step
        const RwlsResult r = rwls_improve(m, opt);
        EXPECT_GT(r.audits, 0u);
        EXPECT_EQ(r.audit_mismatches, 0u)
            << "incremental score drifted from recompute, trial " << trial;
        ASSERT_TRUE(m.is_feasible(r.solution));
    }
}

TEST(Rwls, AuditHoldsOnWeightedCosts) {
    ucp::gen::RandomScpOptions g;
    g.rows = 50;
    g.cols = 40;
    g.density = 0.1;
    g.min_cost = 1;
    g.max_cost = 5;
    g.seed = 77;
    const CoverMatrix m = ucp::gen::random_scp(g);
    RwlsOptions opt;
    opt.max_steps = 1200;
    opt.audit_every = 1;
    const RwlsResult r = rwls_improve(m, opt);
    EXPECT_EQ(r.audit_mismatches, 0u);
    ASSERT_TRUE(m.is_feasible(r.solution));
}

TEST(Rwls, WorkspaceAllocationFreeAfterWarmup) {
    const CoverMatrix m = unicost(3);
    RwlsWorkspace ws;
    RwlsOptions opt;
    opt.max_steps = 500;
    (void)rwls_improve(m, opt, ws);  // warm-up sizes every buffer
    auto& allocs = ucp::stats::counter("rwls.workspace_allocs");
    const std::uint64_t before = allocs.value();
    for (int rep = 0; rep < 3; ++rep) {
        opt.seed = 100 + static_cast<std::uint64_t>(rep);
        const RwlsResult r = rwls_improve(m, opt, ws);
        ASSERT_TRUE(m.is_feasible(r.solution));
    }
    EXPECT_EQ(allocs.value(), before)
        << "rwls allocated after the workspace saw the instance once";
    EXPECT_GT(ws.memory_bytes(), 0u);
}

TEST(Rwls, DeterministicForFixedSeed) {
    const CoverMatrix m = unicost(5, 80, 50, 3);
    RwlsOptions opt;
    opt.seed = 0xabcd;
    opt.max_steps = 3000;
    const RwlsResult a = rwls_improve(m, opt);
    const RwlsResult b = rwls_improve(m, opt);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.solution, b.solution);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.improvements, b.improvements);
}

TEST(Rwls, WarmStartAdoptedAndNeverWorsened) {
    const CoverMatrix m = unicost(7);
    const auto greedy = ucp::solver::chvatal_greedy(m);
    RwlsOptions opt;
    opt.max_steps = 1;  // one step: the incumbent is the stripped seed
    opt.initial = greedy.solution;
    const RwlsResult r = rwls_improve(m, opt);
    ASSERT_TRUE(m.is_feasible(r.solution));
    EXPECT_LE(r.cost, greedy.cost);
}

TEST(Rwls, PartialWarmStartIsCompleted) {
    const CoverMatrix m = unicost(9);
    RwlsOptions opt;
    opt.max_steps = 100;
    opt.initial = {0};  // covers almost nothing; completion must repair it
    const RwlsResult r = rwls_improve(m, opt);
    ASSERT_TRUE(m.is_feasible(r.solution));
}

TEST(Rwls, FeasibleUnderIterationCapTruncation) {
    const CoverMatrix m = unicost(11, 100, 60, 3);
    for (const std::uint64_t cap : {1ull, 5ull, 50ull}) {
        BudgetOptions bo;
        bo.iteration_cap = cap;
        Budget governor(bo);
        RwlsOptions opt;
        opt.max_steps = 100000;
        opt.governor = &governor;
        const RwlsResult r = rwls_improve(m, opt);
        EXPECT_EQ(r.status, Status::kDeadline);
        ASSERT_TRUE(m.is_feasible(r.solution))
            << "truncated at " << cap << " iterations";
        EXPECT_EQ(r.cost, m.solution_cost(r.solution));
    }
}

TEST(Rwls, FeasibleUnderCancel) {
    const CoverMatrix m = unicost(13);
    ucp::CancelToken cancel;
    cancel.cancel();  // tripped before the first step
    Budget governor(BudgetOptions{}, &cancel);
    RwlsOptions opt;
    opt.governor = &governor;
    const RwlsResult r = rwls_improve(m, opt);
    EXPECT_EQ(r.status, Status::kCancelled);
    ASSERT_TRUE(m.is_feasible(r.solution));
}

TEST(Rwls, StopsAtTargetLowerBound) {
    const CoverMatrix m = unicost(15);
    const auto exact = ucp::solver::solve_exact(m);
    ASSERT_TRUE(exact.optimal);
    RwlsOptions opt;
    opt.max_steps = 200000;
    opt.target_lower_bound = exact.cost;
    const RwlsResult r = rwls_improve(m, opt);
    ASSERT_TRUE(m.is_feasible(r.solution));
    // The target is the optimum: reaching it ends the search early (if the
    // step budget sufficed, the cost equals the optimum).
    EXPECT_GE(r.cost, exact.cost);
    if (r.cost == exact.cost) {
        EXPECT_LT(r.steps, opt.max_steps);
    }
}

TEST(Rwls, ImprovesOverGreedyOnCirculant) {
    // C(30, 4): optimum 8, greedy typically lands above it. RWLS should close
    // most of the gap within a small step budget.
    const CoverMatrix m = ucp::gen::cyclic_matrix(30, 4);
    const auto exact = ucp::solver::solve_exact(m);
    ASSERT_TRUE(exact.optimal);
    RwlsOptions opt;
    opt.max_steps = 20000;
    opt.target_lower_bound = exact.cost;
    const RwlsResult r = rwls_improve(m, opt);
    ASSERT_TRUE(m.is_feasible(r.solution));
    EXPECT_EQ(r.cost, exact.cost);
}

TEST(Rwls, RunsOnSubMatrixLiveView) {
    const CoverMatrix m = unicost(17, 80, 50, 3);
    // Reduce to the live core view, then search only the live slice.
    ucp::cov::SubMatrix view;
    const auto red = ucp::cov::reduce_to_view(m, view);
    ASSERT_GT(view.num_live_rows(), 0u);
    RwlsOptions opt;
    opt.max_steps = 2000;
    RwlsWorkspace ws;
    const RwlsResult r = rwls_improve(view, opt, ws);
    // Base-index solution covering every live row.
    EXPECT_TRUE(view.is_feasible(r.solution));
    for (const Index j : r.solution) EXPECT_TRUE(view.col_alive(j));
    // Essentials + the core cover is feasible for the full matrix.
    std::vector<Index> full = red.essential_cols;
    full.insert(full.end(), r.solution.begin(), r.solution.end());
    EXPECT_TRUE(m.is_feasible(full));
}

TEST(Rwls, SubMatrixAuditHolds) {
    const CoverMatrix m = unicost(19, 60, 40, 3);
    ucp::cov::SubMatrix view;
    (void)ucp::cov::reduce_to_view(m, view);
    if (view.num_live_rows() == 0) GTEST_SKIP() << "reductions solved it";
    RwlsOptions opt;
    opt.max_steps = 800;
    opt.audit_every = 1;
    RwlsWorkspace ws;
    const RwlsResult r = rwls_improve(view, opt, ws);
    EXPECT_EQ(r.audit_mismatches, 0u);
    EXPECT_TRUE(view.is_feasible(r.solution));
}

TEST(Rwls, TrajectoryPinned) {
    const auto suite = ucp::gen::unicost_suite();
    const auto it = std::find_if(suite.begin(), suite.end(), [](const auto& e) {
        return e.name == "u300x100k4";
    });
    ASSERT_NE(it, suite.end());
    const auto red = ucp::cov::reduce(it->matrix);
    ASSERT_FALSE(red.solved());
    RwlsOptions opt;
    opt.seed = 0x7a7;
    opt.max_steps = 20000;
    opt.initial = ucp::solver::chvatal_greedy(red.core).solution;
    const RwlsResult r = rwls_improve(red.core, opt);
    // Recorded from the row-scanning engine that predates the cover-set
    // XOR: the O(1) co-coverer lookup must replay the same search exactly.
    EXPECT_EQ(r.cost, 36);
    EXPECT_EQ(r.steps, 20000u);
    EXPECT_EQ(r.improvements, 3u);
    const std::vector<Index> pinned{0,  2,  3,  6,  7,  14, 15, 17, 18,
                                    20, 23, 24, 26, 30, 34, 36, 41, 43,
                                    46, 50, 55, 59, 63, 65, 67, 68, 70,
                                    72, 73, 75, 80, 87, 89, 90, 92, 95};
    EXPECT_EQ(r.solution, pinned);
}

}  // namespace
