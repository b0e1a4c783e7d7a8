// The SCG solver (the paper's algorithm): feasibility, bound validity,
// optimality proofs, near-optimality vs the exact solver, option toggles,
// restart behaviour, determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "solver/scg.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ucp::cov::Cost;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::solver::ScgOptions;
using ucp::solver::solve_scg;

TEST(Scg, FeasibleAndBoundedOnRandomInstances) {
    ucp::Rng seeds(61);
    for (int trial = 0; trial < 20; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 30;
        g.cols = 45;
        g.density = 0.08 + 0.02 * (trial % 4);
        g.min_cost = 1;
        g.max_cost = 1 + trial % 3;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const auto r = solve_scg(m);
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_EQ(m.solution_cost(r.solution), r.cost);
        EXPECT_LE(r.lower_bound, r.cost) << "seed " << g.seed;
        if (r.proved_optimal) {
            EXPECT_EQ(r.lower_bound, r.cost);
        }
    }
}

TEST(Scg, NearOptimalVsExact) {
    ucp::Rng seeds(63);
    int optimal_hits = 0, total = 0;
    for (int trial = 0; trial < 15; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 14;
        g.cols = 18;
        g.density = 0.18;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const auto exact = ucp::solver::solve_exact(m);
        ASSERT_TRUE(exact.optimal);
        const auto r = solve_scg(m);
        ++total;
        EXPECT_GE(r.cost, exact.cost);        // heuristic can't beat optimum
        EXPECT_LE(r.lower_bound, exact.cost); // LB is valid
        EXPECT_LE(r.cost, exact.cost + 1);    // near-optimality (paper's claim)
        if (r.cost == exact.cost) ++optimal_hits;
    }
    // The paper: "nearly always hits the optimum".
    EXPECT_GE(optimal_hits * 10, total * 8);
}

TEST(Scg, SolvesReductionSolvableInstanceExactly) {
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0}, {1}, {0, 1, 2}}, {1, 1, 1});
    const auto r = solve_scg(m);
    EXPECT_TRUE(r.proved_optimal);
    EXPECT_EQ(r.cost, 2);
}

TEST(Scg, HandExamples) {
    const auto glue = solve_scg(ucp::gen::mis_vs_dual_example());
    EXPECT_EQ(glue.cost, 2);
    EXPECT_TRUE(glue.proved_optimal);

    const auto tri = solve_scg(ucp::gen::dual_vs_lp_example());
    EXPECT_EQ(tri.cost, 3);
    // LB reaches ⌈2.5⌉ = 3 when the subgradient converges far enough.
    EXPECT_GE(tri.lower_bound, 2);
}

TEST(Scg, CyclicCores) {
    for (const auto& [n, k] :
         std::vector<std::pair<Index, Index>>{{9, 3}, {12, 5}, {14, 4}}) {
        const auto r = solve_scg(ucp::gen::cyclic_matrix(n, k));
        EXPECT_EQ(r.cost, static_cast<Cost>((n + k - 1) / k))
            << "C(" << n << "," << k << ")";
    }
}

TEST(Scg, DeterministicForFixedSeed) {
    ucp::gen::RandomScpOptions g;
    g.rows = 25;
    g.cols = 40;
    g.density = 0.1;
    g.seed = 7;
    const CoverMatrix m = ucp::gen::random_scp(g);
    ScgOptions opt;
    opt.seed = 99;
    const auto a = solve_scg(m, opt);
    const auto b = solve_scg(m, opt);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.solution, b.solution);
    EXPECT_EQ(a.lower_bound, b.lower_bound);
}

TEST(Scg, PenaltyTogglesPreserveCorrectness) {
    ucp::Rng seeds(67);
    for (int trial = 0; trial < 8; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 16;
        g.cols = 20;
        g.density = 0.15;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const Cost exact = ucp::solver::solve_exact(m).cost;
        for (const bool lagr_pen : {false, true}) {
            for (const bool dual_pen : {false, true}) {
                ScgOptions opt;
                opt.use_lagrangian_penalties = lagr_pen;
                opt.use_dual_penalties = dual_pen;
                const auto r = solve_scg(m, opt);
                EXPECT_TRUE(m.is_feasible(r.solution));
                EXPECT_GE(r.cost, exact);
                EXPECT_LE(r.lower_bound, exact);
            }
        }
    }
}

TEST(Scg, MoreRestartsNeverWorse) {
    ucp::Rng seeds(69);
    for (int trial = 0; trial < 6; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 24;
        g.cols = 36;
        g.density = 0.12;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        ScgOptions one;
        one.num_iter = 1;
        ScgOptions many;
        many.num_iter = 6;
        // Same seed: run 1 is deterministic and shared, so more restarts can
        // only improve the incumbent.
        EXPECT_LE(solve_scg(m, many).cost, solve_scg(m, one).cost);
    }
}

TEST(Scg, TimeLimitHonored) {
    ucp::gen::RandomScpOptions g;
    g.rows = 60;
    g.cols = 120;
    g.density = 0.05;
    g.seed = 3;
    const CoverMatrix m = ucp::gen::random_scp(g);
    ScgOptions opt;
    opt.time_limit_seconds = 0.05;
    opt.num_iter = 10000;
    const auto r = solve_scg(m, opt);
    EXPECT_TRUE(m.is_feasible(r.solution));
    EXPECT_LT(r.seconds, 5.0);  // generous: one subgradient call may overshoot
}

TEST(Scg, ProgressLogIsWritten) {
    std::ostringstream log;
    ScgOptions opt;
    opt.log = &log;
    const auto r = solve_scg(ucp::gen::cyclic_matrix(12, 5), opt);
    EXPECT_TRUE(r.proved_optimal);
    const std::string text = log.str();
    EXPECT_NE(text.find("[scg] core 12x12"), std::string::npos);
    EXPECT_NE(text.find("incumbent"), std::string::npos);
}

TEST(Scg, RunOfBestIsTracked) {
    const auto r = solve_scg(ucp::gen::cyclic_matrix(10, 3));
    EXPECT_GE(r.run_of_best, 0);
    EXPECT_LE(r.run_of_best, r.runs_executed);
}

/// FNV-1a over the solution's column sequence (order included).
std::uint64_t solution_hash(const std::vector<Index>& solution) {
    std::uint64_t h = 1469598103934665603ull;
    for (const Index j : solution) {
        h ^= j;
        h *= 1099511628211ull;
    }
    return h;
}

const CoverMatrix& unicost(const std::string& name) {
    static const auto suite = ucp::gen::unicost_suite();
    for (const auto& e : suite)
        if (e.name == name) return e.matrix;
    throw std::invalid_argument("no unicost instance " + name);
}

/// Answers of the solver that recomputed every fixing step's ascent (before
/// the spine replay existed), default options except num_iter.
struct Recorded {
    const char* instance;
    int num_iter;
    Cost cost, lower_bound;
    std::size_t solution_size;
    std::uint64_t solution_hash;
    int run_of_best, runs_executed;
    std::size_t fixed_by_penalties, removed_by_penalties;
    std::size_t ascents;  ///< subgradient_calls of the recomputing solver
};

constexpr Recorded kRecorded[] = {
    {"u120x60k3", 2, 23, 20, 23, 0x24773945633c82d5ull, 0, 2, 6, 28, 27},
    {"u200x80k3", 2, 34, 27, 34, 0xac0c0e4183b75ec6ull, 1, 2, 0, 58, 37},
    {"u300x100k4", 2, 37, 25, 37, 0x0845a55f8a9311acull, 1, 2, 0, 64, 57},
    {"u400x120k4", 2, 46, 30, 46, 0x57416e1470003ce3ull, 1, 2, 0, 42, 67},
    {"u500x140k5", 2, 47, 28, 47, 0xef9d75efcdc94cbcull, 1, 2, 0, 36, 75},
    {"u600x150k5", 2, 51, 30, 51, 0x0eb94398971e0f58ull, 1, 2, 0, 90, 83},
    {"sts27", 2, 17, 9, 17, 0x64a3e033f250b421ull, 0, 2, 0, 4, 23},
    {"sts45", 2, 29, 15, 29, 0x02d1a2e9520c19ebull, 0, 2, 0, 8, 41},
    {"u120x60k3", 4, 23, 20, 23, 0x24773945633c82d5ull, 0, 4, 7, 50, 53},
    {"u200x80k3", 4, 34, 27, 34, 0xac0c0e4183b75ec6ull, 1, 4, 0, 99, 75},
    {"u300x100k4", 4, 36, 25, 36, 0x4458c424f80ca9a8ull, 3, 4, 0, 144, 101},
    {"u400x120k4", 4, 45, 30, 45, 0x82d667549605c6afull, 3, 4, 1, 132, 128},
    {"u500x140k5", 4, 45, 28, 45, 0x604b400f3ea5ad21ull, 3, 4, 0, 189, 135},
    {"u600x150k5", 4, 51, 30, 51, 0x0eb94398971e0f58ull, 1, 4, 0, 216, 154},
    {"sts27", 4, 17, 9, 17, 0x64a3e033f250b421ull, 0, 4, 0, 8, 44},
    {"sts45", 4, 29, 15, 29, 0x02d1a2e9520c19ebull, 0, 4, 0, 23, 79},
};

TEST(Scg, SpineReplayIsBitIdentical) {
    for (const Recorded& want : kRecorded) {
        ScgOptions opt;
        opt.num_iter = want.num_iter;
        const auto r = solve_scg(unicost(want.instance), opt);
        SCOPED_TRACE(std::string(want.instance) + " num_iter " +
                     std::to_string(want.num_iter));
        EXPECT_EQ(r.cost, want.cost);
        EXPECT_EQ(r.lower_bound, want.lower_bound);
        EXPECT_EQ(r.solution.size(), want.solution_size);
        EXPECT_EQ(solution_hash(r.solution), want.solution_hash);
        EXPECT_EQ(r.run_of_best, want.run_of_best);
        EXPECT_EQ(r.runs_executed, want.runs_executed);
        EXPECT_EQ(r.columns_fixed_by_penalties, want.fixed_by_penalties);
        EXPECT_EQ(r.columns_removed_by_penalties, want.removed_by_penalties);
        EXPECT_EQ(r.subgradient_calls + r.replayed_steps, want.ascents);
    }
}

TEST(Scg, ReplaySkipsSubgradientCalls) {
    auto& c_sub = ucp::stats::counter("scg.subgradient_calls");
    auto& c_replayed = ucp::stats::counter("scg.replayed_steps");
    for (const Recorded& want : kRecorded) {
        if (want.num_iter != 2) continue;
        const std::uint64_t sub0 = c_sub.value(), rep0 = c_replayed.value();
        ScgOptions opt;
        opt.num_iter = want.num_iter;
        const auto r = solve_scg(unicost(want.instance), opt);
        SCOPED_TRACE(want.instance);
        // Run 2 repeats run 1's decisions here, so it replays every step.
        EXPECT_GT(r.replayed_steps, 0u);
        EXPECT_EQ(r.subgradient_calls + r.replayed_steps, want.ascents);
        EXPECT_EQ(c_sub.value() - sub0, r.subgradient_calls);
        EXPECT_EQ(c_replayed.value() - rep0, r.replayed_steps);
    }
}

TEST(Scg, IterationCapInsideReplayedRunIsUnchanged) {
    // Caps at 1/4, 1/2 and 3/4 of run 2's iterations: the replay charges the
    // governor iteration by iteration, so the trip lands in the same ascent
    // of run 2 as when every ascent was recomputed.
    struct Governed {
        const char* instance;
        std::uint64_t cap;
        Cost cost, lower_bound;
        std::uint64_t solution_hash;
        int run_of_best, runs_executed;
        std::size_t ascents;
    };
    const Governed cases[] = {
        {"u120x60k3", 6920, 23, 20, 0x24773945633c82d5ull, 0, 2, 18},
        {"u120x60k3", 8208, 23, 20, 0x24773945633c82d5ull, 0, 2, 21},
        {"u120x60k3", 9496, 23, 20, 0x24773945633c82d5ull, 0, 2, 24},
        {"u300x100k4", 16908, 37, 25, 0x0845a55f8a9311acull, 1, 2, 36},
        {"u300x100k4", 20225, 37, 25, 0x0845a55f8a9311acull, 1, 2, 42},
        {"u300x100k4", 23542, 37, 25, 0x0845a55f8a9311acull, 1, 2, 50},
        {"sts45", 7723, 29, 15, 0x02d1a2e9520c19ebull, 0, 2, 25},
        {"sts45", 9240, 29, 15, 0x02d1a2e9520c19ebull, 0, 2, 30},
        {"sts45", 10757, 29, 15, 0x02d1a2e9520c19ebull, 0, 2, 35},
    };
    for (const Governed& want : cases) {
        ucp::BudgetOptions bo;
        bo.iteration_cap = want.cap;
        ucp::Budget governor(bo);
        ScgOptions opt;
        opt.num_iter = 2;
        opt.governor = &governor;
        const auto r = solve_scg(unicost(want.instance), opt);
        SCOPED_TRACE(std::string(want.instance) + " cap " +
                     std::to_string(want.cap));
        EXPECT_EQ(r.status, ucp::Status::kDeadline);
        EXPECT_EQ(r.cost, want.cost);
        EXPECT_EQ(r.lower_bound, want.lower_bound);
        EXPECT_EQ(solution_hash(r.solution), want.solution_hash);
        EXPECT_EQ(r.run_of_best, want.run_of_best);
        EXPECT_EQ(r.runs_executed, want.runs_executed);
        EXPECT_EQ(r.subgradient_calls + r.replayed_steps, want.ascents);
        EXPECT_GT(r.replayed_steps, 0u);
    }
}

}  // namespace
