// The anytime solver harness: deadline and cancellation trips return a
// feasible best-so-far result with a valid bound, fault injection trips
// deterministically regardless of thread count, the consensus closure stops
// on cancel/deadline and reports a prime-limit overflow as a node-budget
// status, and a ZDD node-budget trip degrades to the explicit path with a
// bit-identical covering matrix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "cover/table_builder.hpp"
#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "primes/explicit_primes.hpp"
#include "solver/scg.hpp"
#include "solver/two_level.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

// Hermetic: every injection below uses an explicit BudgetOptions::fault spec;
// an ambient UCP_FAULT (e.g. from a CI sweep) would poison the ungoverned
// reference runs these tests compare against.
const bool g_env_cleared = [] {
    unsetenv("UCP_FAULT");
    return true;
}();

using ucp::Budget;
using ucp::BudgetOptions;
using ucp::CancelToken;
using ucp::Status;
using ucp::cov::CoverMatrix;
using ucp::pla::Pla;
using ucp::solver::minimize_two_level;
using ucp::solver::ScgOptions;
using ucp::solver::ScgResult;
using ucp::solver::solve_scg;
using ucp::solver::TwoLevelOptions;

CoverMatrix scp_instance(std::uint64_t seed) {
    ucp::gen::RandomScpOptions g;
    g.rows = 40;
    g.cols = 60;
    g.density = 0.08;
    g.min_cost = 1;
    g.max_cost = 4;
    g.seed = seed;
    return ucp::gen::random_scp(g);
}

Pla random_pla(std::uint64_t seed, std::uint32_t n = 6, std::uint32_t m = 2,
               std::uint32_t cubes = 14) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = n;
    opt.num_outputs = m;
    opt.num_cubes = cubes;
    opt.literal_prob = 0.55;
    opt.dc_fraction = 0.2;
    opt.seed = seed;
    return ucp::gen::random_pla(opt);
}

bool same_matrix(const CoverMatrix& a, const CoverMatrix& b) {
    if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols() ||
        a.num_entries() != b.num_entries())
        return false;
    for (ucp::cov::Index i = 0; i < a.num_rows(); ++i)
        if (a.row(i) != b.row(i)) return false;
    for (ucp::cov::Index j = 0; j < a.num_cols(); ++j)
        if (a.cost(j) != b.cost(j)) return false;
    return true;
}

// ---- deadline trips ---------------------------------------------------------

TEST(Anytime, ScgDeadlineFaultReturnsFeasibleBestSoFar) {
    const CoverMatrix m = scp_instance(4711);
    // Sweep the trip point from "immediately" to "deep into the solve": the
    // anytime contract (feasible solution, valid bound) must hold at every N.
    for (const std::uint64_t n : {1u, 3u, 10u, 100u}) {
        BudgetOptions bopt;
        bopt.fault = {ucp::fault::Kind::kDeadline, n};
        Budget gov(bopt);
        ScgOptions opt;
        opt.governor = &gov;
        const ScgResult r = solve_scg(m, opt);
        SCOPED_TRACE("fault deadline:" + std::to_string(n));
        ASSERT_FALSE(r.solution.empty());
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_EQ(m.solution_cost(r.solution), r.cost);
        EXPECT_LE(r.lower_bound, r.cost);
        EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kDeadline);
        if (n == 1) EXPECT_EQ(r.status, Status::kDeadline);
    }
}

TEST(Anytime, TwoLevelDeadlineFaultBeforeTableIsReportedNotThrown) {
    const Pla p = random_pla(131);
    TwoLevelOptions opt;
    opt.budget.fault = {ucp::fault::Kind::kDeadline, 1};
    const auto r = minimize_two_level(p, opt);
    // The very first governor poll trips, so no covering table exists yet:
    // the contract is an *empty* result carrying the trip status, not a
    // throw or an abort.
    EXPECT_EQ(r.status, Status::kDeadline);
    EXPECT_EQ(r.cover.size(), 0u);
    EXPECT_FALSE(r.verified);
}

TEST(Anytime, TwoLevelWallClockDeadlineAlreadyExpired) {
    const Pla p = random_pla(137);
    TwoLevelOptions opt;
    opt.budget.deadline_seconds = 1e-9;  // expires before the first poll
    const auto r = minimize_two_level(p, opt);
    EXPECT_EQ(r.status, Status::kDeadline);
}

TEST(Anytime, ScgIterationCapTripsAsDeadline) {
    // A capped run either proves optimality before the cap bites (legitimate
    // kOk) or must report the trip; it never pretends a truncated descent
    // completed. At least one of the seeds is hard enough to trip.
    ucp::Rng seeds(4717);
    int trips = 0;
    for (int trial = 0; trial < 5; ++trial) {
        const CoverMatrix m = scp_instance(seeds());
        BudgetOptions bopt;
        bopt.iteration_cap = 5;
        Budget gov(bopt);
        ScgOptions opt;
        opt.governor = &gov;
        const ScgResult r = solve_scg(m, opt);
        SCOPED_TRACE(trial);
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_LE(r.lower_bound, r.cost);
        if (r.status == Status::kDeadline)
            ++trips;
        else
            EXPECT_TRUE(r.proved_optimal)
                << "an incomplete capped run must report the trip";
    }
    EXPECT_GE(trips, 1);
}

// ---- cancellation -----------------------------------------------------------

TEST(Anytime, CancelTokenEndsTwoLevelSolve) {
    const Pla p = random_pla(139);
    CancelToken cancel;
    cancel.cancel();  // as if SIGINT arrived before the solve
    TwoLevelOptions opt;
    opt.cancel = &cancel;
    const auto r = minimize_two_level(p, opt);
    EXPECT_EQ(r.status, Status::kCancelled);
}

TEST(Anytime, CancelFaultIsDeterministicAcrossThreadCounts) {
    ucp::Rng seeds(7333);
    for (int trial = 0; trial < 3; ++trial) {
        const CoverMatrix m = scp_instance(seeds());
        std::vector<ScgResult> results;
        for (const int threads : {1, 4}) {
            // Each start runs on a fork of the governor with fresh fault
            // counters, so the N-th poll of *each start* trips — making the
            // result independent of how starts are packed onto threads.
            BudgetOptions bopt;
            bopt.fault = {ucp::fault::Kind::kCancel, 7};
            Budget gov(bopt);
            ScgOptions opt;
            opt.seed = 0xabcdULL + trial;
            opt.num_starts = 4;
            opt.num_threads = threads;
            opt.governor = &gov;
            results.push_back(solve_scg(m, opt));
        }
        EXPECT_EQ(results[0].solution, results[1].solution);
        EXPECT_EQ(results[0].cost, results[1].cost);
        EXPECT_EQ(results[0].lower_bound, results[1].lower_bound);
        EXPECT_EQ(results[0].status, results[1].status);
        EXPECT_EQ(results[0].status, Status::kCancelled);
        EXPECT_TRUE(m.is_feasible(results[0].solution));
    }
}

// ---- the consensus closure is governed -----------------------------------------

TEST(Anytime, ConsensusClosureStopsOnCancelAndDeadline) {
    const Pla p = random_pla(4201, 7, 3, 16);
    ucp::pla::Cover care = p.on;
    care.append(p.dc);

    CancelToken cancel;
    cancel.cancel();
    Budget cancelled(BudgetOptions{}, &cancel);
    BudgetOptions dopt;
    dopt.deadline_seconds = 1e-9;  // expired by the first poll
    Budget expired(dopt);
    for (auto [gov, want] : {std::pair{&cancelled, Status::kCancelled},
                             std::pair{&expired, Status::kDeadline}}) {
        try {
            (void)ucp::primes::primes_by_consensus(care, 1u << 20, nullptr, gov);
            ADD_FAILURE() << "the closure ignored a tripped governor";
        } catch (const ucp::ResourceError& e) {
            EXPECT_EQ(e.status(), want);
        }
    }

    TwoLevelOptions copt;
    copt.cancel = &cancel;
    EXPECT_EQ(minimize_two_level(p, copt).status, Status::kCancelled);
    TwoLevelOptions dlopt;
    dlopt.budget.deadline_seconds = 1e-9;
    EXPECT_EQ(minimize_two_level(p, dlopt).status, Status::kDeadline);
}

TEST(Anytime, PrimeLimitOverflowReportsNodeBudget) {
    const Pla p = random_pla(4211, 7, 3, 16);
    ucp::pla::Cover care = p.on;
    care.append(p.dc);
    try {
        (void)ucp::primes::primes_by_consensus(care, 2);
        ADD_FAILURE() << "max_primes overflow did not throw";
    } catch (const ucp::ResourceError& e) {
        EXPECT_EQ(e.status(), Status::kNodeBudget);
    }

    TwoLevelOptions opt;
    opt.table.max_primes = 2;
    const auto r = minimize_two_level(p, opt);
    EXPECT_EQ(r.status, Status::kNodeBudget);
    EXPECT_TRUE(r.cover.empty());
}

TEST(Anytime, PrimeLimitOverflowSkipsConsensusFallback) {
    // The prime set is canonical, so a count above max_primes on the implicit
    // path fails at once instead of rerunning the closure into the same limit.
    for (const std::uint32_t outputs : {1u, 3u}) {
        const Pla p = random_pla(4217, 7, outputs, 16);
        const auto value = [](const char* name) {
            return ucp::stats::counter(name).value();
        };
        const auto fallbacks = value("budget.zdd_fallbacks");
        const auto attempts = value("primes.consensus_attempts");
        TwoLevelOptions opt;
        opt.table.max_primes = 2;
        const auto r = minimize_two_level(p, opt);
        SCOPED_TRACE(std::to_string(outputs) + " outputs");
        EXPECT_EQ(r.status, Status::kNodeBudget);
        EXPECT_EQ(value("budget.zdd_fallbacks"), fallbacks);
        EXPECT_EQ(value("primes.consensus_attempts"), attempts);
    }
}

// ---- node budget: graceful implicit → explicit fallback ---------------------

TEST(Anytime, NodeBudgetFallbackMatrixIsBitIdentical) {
    ucp::Rng seeds(7551);
    for (int trial = 0; trial < 4; ++trial) {
        const Pla p = random_pla(seeds(), 5, trial % 2 == 0 ? 1 : 2, 10);

        // Reference: the pure-explicit pipeline, ungoverned.
        ucp::cover::TableBuildOptions explicit_opt;
        explicit_opt.method = ucp::cover::PrimeMethod::kConsensus;
        explicit_opt.row_method = ucp::cover::RowMethod::kExplicit;
        const auto want = ucp::cover::build_covering_table(p, explicit_opt);

        // Governed run with a node budget so small every DD phase trips.
        BudgetOptions bopt;
        bopt.zdd_node_budget = 1;
        Budget gov(bopt);
        ucp::cover::TableBuildOptions auto_opt;
        auto_opt.dd.governor = &gov;
        const auto before =
            ucp::stats::counter("budget.zdd_fallbacks").value();
        const auto got = ucp::cover::build_covering_table(p, auto_opt);
        const auto after = ucp::stats::counter("budget.zdd_fallbacks").value();

        SCOPED_TRACE(p.name);
        // Both DD phases trip and fall back, on one output and on two: the
        // χ prime generator and the signature walk.
        EXPECT_EQ(after - before, 2u) << "a fallback was not taken";
        EXPECT_TRUE(gov.node_budget_tripped());
        EXPECT_EQ(gov.status(), Status::kOk)
            << "a node trip must not poison the global deadline status";
        EXPECT_EQ(want.primes.size(), got.primes.size());
        EXPECT_TRUE(same_matrix(want.matrix, got.matrix));
    }
}

TEST(Anytime, NodeBudgetTripStillSolvesToCompletion) {
    ucp::Rng seeds(7667);
    for (int trial = 0; trial < 3; ++trial) {
        const Pla p = random_pla(seeds());
        TwoLevelOptions governed;
        governed.budget.zdd_node_budget = 1;
        const auto r = minimize_two_level(p, governed);
        const auto ref = minimize_two_level(p);
        // The node budget only redirects *how* the table is built — the
        // answers must be identical to the unbudgeted run.
        EXPECT_EQ(r.status, Status::kOk);
        EXPECT_TRUE(r.verified);
        EXPECT_EQ(r.cost, ref.cost);
        EXPECT_EQ(r.lower_bound, ref.lower_bound);
    }
}

// ---- fault spec parsing -----------------------------------------------------

TEST(Anytime, FaultSpecParsing) {
    using ucp::fault::Kind;
    using ucp::fault::parse_spec;
    EXPECT_EQ(parse_spec("alloc:3").kind, Kind::kAlloc);
    EXPECT_EQ(parse_spec("alloc:3").at, 3u);
    EXPECT_EQ(parse_spec("deadline:10").kind, Kind::kDeadline);
    EXPECT_EQ(parse_spec("cancel:1").kind, Kind::kCancel);
    // Malformed specs must disable injection, never crash.
    EXPECT_FALSE(parse_spec("").enabled());
    EXPECT_FALSE(parse_spec("alloc").enabled());
    EXPECT_FALSE(parse_spec("alloc:").enabled());
    EXPECT_FALSE(parse_spec("alloc:x").enabled());
    EXPECT_FALSE(parse_spec("frobnicate:3").enabled());
    EXPECT_FALSE(parse_spec(nullptr).enabled());
}

}  // namespace
