// Implicit covering-table construction: rows are signature classes of onset
// minterms; validated against an explicit minterm-by-minterm table, and the
// ZDD signature walk differentially against the explicit row path (same
// rows in the same order) under both node encodings and a thrashing cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "cover/signature_set.hpp"
#include "cover/table_builder.hpp"
#include "gen/pla_gen.hpp"
#include "solver/bnb.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ucp::cov::Index;
using ucp::cover::build_covering_table;
using ucp::cover::CoveringTable;
using ucp::cover::OnsetMatrix;
using ucp::cover::PrimeMethod;
using ucp::cover::RowMethod;
using ucp::cover::TableBuildOptions;
using ucp::pla::Pla;

Pla random_pla(std::uint64_t seed, std::uint32_t n, std::uint32_t m) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = n;
    opt.num_outputs = m;
    opt.num_cubes = 12;
    opt.literal_prob = 0.55;
    opt.dc_fraction = 0.2;
    opt.seed = seed;
    return ucp::gen::random_pla(opt);
}

/// Explicit reference: one row per (output, onset minterm), distinct
/// signatures only. Returns the multiset of row signatures (as sets of
/// prime indices).
std::set<std::vector<Index>> explicit_signatures(const Pla& pla,
                                                 const ucp::pla::Cover& primes) {
    const auto& s = pla.space();
    std::set<std::vector<Index>> rows;
    for (std::uint32_t k = 0; k < s.num_outputs; ++k) {
        for (std::uint64_t a = 0; a < (1ULL << s.num_inputs); ++a) {
            if (!pla.on.eval({a}, k)) continue;
            if (pla.dc.eval({a}, k)) continue;  // care semantics
            std::vector<Index> sig;
            for (std::size_t j = 0; j < primes.size(); ++j) {
                if (primes[j].out(s, k) &&
                    primes[j].covers_assignment(s, {a}))
                    sig.push_back(static_cast<Index>(j));
            }
            EXPECT_FALSE(sig.empty());
            rows.insert(std::move(sig));
        }
    }
    return rows;
}

TEST(TableBuilder, SignatureClassesMatchExplicitEnumeration) {
    ucp::Rng seeds(81);
    for (int trial = 0; trial < 12; ++trial) {
        const Pla p = random_pla(seeds(), 6, 1 + trial % 3);
        const CoveringTable t = build_covering_table(p);
        const auto expected = explicit_signatures(p, t.primes);

        std::set<std::vector<Index>> got;
        for (Index i = 0; i < t.matrix.num_rows(); ++i)
            got.insert(t.matrix.row(i));
        EXPECT_EQ(got, expected) << p.name;
        EXPECT_EQ(t.matrix.num_rows(), expected.size());
    }
}

TEST(TableBuilder, OnsetMintermCountMatches) {
    const Pla p = random_pla(7, 6, 2);
    const CoveringTable t = build_covering_table(p);
    double count = 0;
    const auto& s = p.space();
    for (std::uint32_t k = 0; k < s.num_outputs; ++k)
        for (std::uint64_t a = 0; a < (1ULL << s.num_inputs); ++a)
            if (p.on.eval({a}, k) && !p.dc.eval({a}, k)) count += 1;
    EXPECT_DOUBLE_EQ(t.onset_minterms, count);
}

TEST(TableBuilder, ImplicitAndConsensusAgreeSingleOutput) {
    ucp::Rng seeds(83);
    for (int trial = 0; trial < 8; ++trial) {
        const Pla p = random_pla(seeds(), 7, 1);
        TableBuildOptions a, b;
        a.method = PrimeMethod::kImplicit;
        b.method = PrimeMethod::kConsensus;
        const CoveringTable ta = build_covering_table(p, a);
        const CoveringTable tb = build_covering_table(p, b);
        EXPECT_TRUE(ta.used_implicit_primes);
        EXPECT_FALSE(tb.used_implicit_primes);
        EXPECT_EQ(ta.primes.size(), tb.primes.size());
        EXPECT_EQ(ta.matrix.num_rows(), tb.matrix.num_rows());
        // Same optimal covering cost either way.
        if (ta.matrix.num_rows() > 0 && ta.matrix.num_rows() < 40) {
            EXPECT_EQ(ucp::solver::solve_exact(ta.matrix).cost,
                      ucp::solver::solve_exact(tb.matrix).cost);
        }
    }
}

TEST(TableBuilder, ImplicitAndConsensusAgreeMultiOutput) {
    // Both generators emit the canonical prime order, so the columns and the
    // matrix are the same whichever one runs.
    ucp::Rng seeds(85);
    for (int trial = 0; trial < 12; ++trial) {
        const Pla p = random_pla(seeds(), 5 + trial % 4, 2 + trial % 3);
        TableBuildOptions a, b;
        a.method = PrimeMethod::kImplicit;
        b.method = PrimeMethod::kConsensus;
        const CoveringTable ta = build_covering_table(p, a);
        const CoveringTable tb = build_covering_table(p, b);
        SCOPED_TRACE(p.name);
        EXPECT_TRUE(ta.used_implicit_primes);
        EXPECT_FALSE(tb.used_implicit_primes);
        ASSERT_EQ(ta.primes.size(), tb.primes.size());
        for (std::size_t j = 0; j < ta.primes.size(); ++j)
            EXPECT_EQ(ta.primes[j], tb.primes[j]) << "column " << j;
        ASSERT_EQ(ta.matrix.num_rows(), tb.matrix.num_rows());
        for (Index i = 0; i < ta.matrix.num_rows(); ++i)
            EXPECT_EQ(ta.matrix.row(i), tb.matrix.row(i)) << "row " << i;
    }
}

TEST(TableBuilder, EssentialPrimesDetected) {
    // Parity: every onset minterm is its own prime → all essential.
    const Pla p = ucp::gen::parity_pla(4);
    const CoveringTable t = build_covering_table(p);
    EXPECT_EQ(t.num_essential_primes, 8u);
    EXPECT_EQ(t.primes.size(), 8u);
    EXPECT_EQ(t.matrix.num_rows(), 8u);
}

TEST(TableBuilder, SolutionToCoverMapsColumns) {
    const Pla p = random_pla(5, 5, 1);
    const CoveringTable t = build_covering_table(p);
    ASSERT_GT(t.matrix.num_cols(), 0u);
    const auto cover = ucp::cover::solution_to_cover(t, {0});
    ASSERT_EQ(cover.size(), 1u);
    EXPECT_EQ(cover[0], t.primes[0]);
    EXPECT_THROW(ucp::cover::solution_to_cover(t, {static_cast<Index>(
                     t.primes.size() + 5)}),
                 std::invalid_argument);
}

TEST(TableBuilder, GuardsFire) {
    const Pla p = ucp::gen::majority_pla(7);
    TableBuildOptions opt;
    opt.max_cols = 3;
    EXPECT_THROW(build_covering_table(p, opt), std::runtime_error);
    TableBuildOptions opt2;
    opt2.max_rows = 2;
    EXPECT_THROW(build_covering_table(p, opt2), std::runtime_error);
}

// ---- differential: signature walk vs explicit enumeration ------------------

/// The dd configurations every differential case runs under: chain nodes on
/// and off, and a tiny cache with an eager GC threshold.
std::vector<std::pair<const char*, ucp::zdd::DdOptions>> dd_configs() {
    ucp::zdd::DdOptions chain, plain, tiny;
    chain.chain_nodes = true;
    plain.chain_nodes = false;
    tiny.gc_threshold = 64;
    tiny.cache_entries = 16;
    return {{"chain", chain}, {"plain", plain}, {"tiny-cache", tiny}};
}

void expect_same_onset(const OnsetMatrix& want, const OnsetMatrix& got) {
    ASSERT_EQ(want.matrix.num_rows(), got.matrix.num_rows());
    ASSERT_EQ(want.matrix.num_cols(), got.matrix.num_cols());
    for (Index i = 0; i < want.matrix.num_rows(); ++i)
        ASSERT_EQ(want.matrix.row(i), got.matrix.row(i)) << "row " << i;
    EXPECT_EQ(want.onset_minterms, got.onset_minterms);
    EXPECT_EQ(want.essential_columns, got.essential_columns);
}

/// Compares the walk with the explicit path on `columns`, under every dd
/// configuration.
void expect_walk_matches_explicit(const Pla& p, const ucp::pla::Cover& columns) {
    const OnsetMatrix want = ucp::cover::onset_covering_matrix(
        p, columns, 50'000, {}, RowMethod::kExplicit);
    for (const auto& [name, dd] : dd_configs()) {
        SCOPED_TRACE(name);
        expect_same_onset(want, ucp::cover::onset_covering_matrix(
                                    p, columns, 50'000, dd, RowMethod::kImplicit));
    }
}

TEST(TableBuilder, SignatureWalkMatchesExplicitRowsOnRandomPlas) {
    ucp::Rng seeds(1201);
    for (int trial = 0; trial < 40; ++trial) {
        ucp::gen::RandomPlaOptions opt;
        opt.num_inputs = 3 + static_cast<std::uint32_t>(trial % 8);  // 3..10
        opt.num_outputs = 1 + static_cast<std::uint32_t>(trial % 4);  // 1..4
        opt.num_cubes = 6 + static_cast<std::uint32_t>(trial % 13);
        opt.literal_prob = 0.35 + 0.05 * (trial % 9);
        opt.dc_fraction = trial % 5 == 0 ? 0.0 : 0.25;
        opt.seed = seeds();
        const Pla p = ucp::gen::random_pla(opt);
        SCOPED_TRACE(p.name + " trial " + std::to_string(trial));
        TableBuildOptions topt;
        topt.method = PrimeMethod::kConsensus;
        topt.row_method = RowMethod::kExplicit;
        const CoveringTable t = build_covering_table(p, topt);
        if (t.primes.empty()) continue;
        expect_walk_matches_explicit(p, t.primes);
        // Non-prime columns too (the exact IRREDUNDANT use): the ON cubes
        // followed by the primes, so column sets overlap and nest.
        ucp::pla::Cover mixed = p.on;
        mixed.append(t.primes);
        expect_walk_matches_explicit(p, mixed);
    }
}

TEST(TableBuilder, SignatureWalkHandlesChainsAndWideRuns) {
    // Long runs of positive literals compress into chain nodes; a wide
    // don't-care cube makes the walk stop early high in the diagram.
    const ucp::pla::CubeSpace s{12, 2};
    Pla p;
    p.on = ucp::pla::Cover::from_strings(
        s, {{"111111111---", "10"},
            {"1111111111-0", "11"},
            {"0-----------", "01"},
            {"-0-1-0-1-0-1", "11"}});
    p.dc = ucp::pla::Cover::from_strings(s, {{"11111111111-", "01"}});
    p.off = ucp::pla::Cover(s);
    const CoveringTable t = build_covering_table(p);
    expect_walk_matches_explicit(p, t.primes);
}

TEST(TableBuilder, SignatureWalkHandlesLiveSetsWiderThanOneWord) {
    // More than 64 columns per output: the live set spans several words.
    for (const Pla& p : {ucp::gen::parity_pla(8), ucp::gen::adder_pla(3)}) {
        SCOPED_TRACE(p.name);
        const CoveringTable t = build_covering_table(p);
        ASSERT_GT(t.primes.size(), 64u);
        expect_walk_matches_explicit(p, t.primes);
    }
}

TEST(TableBuilder, SignatureWalkRejectsUncoveredOnset) {
    const Pla p = random_pla(17, 6, 2);
    ucp::pla::Cover partial(p.space());
    partial.add(p.on[0]);  // one cube cannot cover a 12-cube on-set
    for (const RowMethod m : {RowMethod::kExplicit, RowMethod::kImplicit})
        EXPECT_THROW(
            ucp::cover::onset_covering_matrix(p, partial, 50'000, {}, m),
            ucp::BadInputError);
}

TEST(TableBuilder, SignatureWalkKeepsMaxRowsGuard) {
    const Pla p = ucp::gen::parity_pla(6);  // 32 singleton classes
    const CoveringTable t = build_covering_table(p);
    // Under kAuto the overflow fails at once: the explicit path would find
    // the same classes and overflow the same guard.
    for (const RowMethod m : {RowMethod::kImplicit, RowMethod::kAuto}) {
        const auto fallbacks =
            ucp::stats::counter("budget.zdd_fallbacks").value();
        try {
            (void)ucp::cover::onset_covering_matrix(p, t.primes, 8, {}, m);
            ADD_FAILURE() << "max_rows guard did not fire";
        } catch (const ucp::ResourceError& e) {
            EXPECT_EQ(e.status(), ucp::Status::kNodeBudget);
        }
        EXPECT_EQ(ucp::stats::counter("budget.zdd_fallbacks").value(), fallbacks)
            << "the max_rows overflow fell back to the explicit path";
    }
}

/// The vector form of the row order, as the row paths once sorted it.
bool member_first_less(const std::vector<Index>& a, const std::vector<Index>& b) {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t t = 0; t < n; ++t)
        if (a[t] != b[t]) return a[t] < b[t];
    return a.size() > b.size();
}

TEST(TableBuilder, BitsetOrderMatchesMemberFirstLess) {
    ucp::Rng rng(4711);
    for (const Index cols : {5u, 64u, 65u, 130u, 190u}) {
        SCOPED_TRACE(std::to_string(cols) + " columns");
        const std::size_t words = (cols + 63) / 64;
        ucp::cover::RecordSet set(words);
        std::vector<std::vector<Index>> lists;  // by insertion index
        const auto add = [&](const std::vector<Index>& list) {
            std::vector<std::uint64_t> bits(words, 0);
            for (const Index c : list) bits[c / 64] |= std::uint64_t{1} << (c % 64);
            if (set.insert(bits.data())) lists.push_back(list);
        };
        for (int t = 0; t < 300; ++t) {
            std::vector<Index> list;
            const std::uint64_t density = 2 + rng.below(12);
            for (Index c = 0; c < cols; ++c)
                if (rng.below(density) == 0) list.push_back(c);
            if (list.empty()) continue;
            add(list);
            // A proper prefix (it may end in any word) and a variant that
            // differs in one of the highest columns.
            add(std::vector<Index>(list.begin(),
                                   list.begin() + 1 + rng.below(list.size())));
            std::vector<Index> variant = list;
            const Index hi =
                cols - 1 - static_cast<Index>(rng.below(std::min<Index>(cols, 40)));
            const auto at = std::lower_bound(variant.begin(), variant.end(), hi);
            if (at != variant.end() && *at == hi)
                variant.erase(at);
            else
                variant.insert(at, hi);
            if (!variant.empty()) add(variant);
        }
        std::vector<std::uint32_t> want(lists.size());
        std::iota(want.begin(), want.end(), 0U);
        std::sort(want.begin(), want.end(), [&](std::uint32_t a, std::uint32_t b) {
            return member_first_less(lists[a], lists[b]);
        });
        EXPECT_EQ(ucp::cover::member_first_order(set), want);
    }
}

TEST(TableBuilder, SignatureWalkPollsTheGovernor) {
    ucp::CancelToken cancel;
    cancel.cancel();
    ucp::Budget gov(ucp::BudgetOptions{}, &cancel);
    ucp::zdd::DdOptions dd;
    dd.governor = &gov;
    const Pla p = random_pla(23, 6, 2);
    const CoveringTable t = build_covering_table(p);
    try {
        (void)ucp::cover::onset_covering_matrix(p, t.primes, 50'000, dd,
                                                RowMethod::kImplicit);
        FAIL() << "a cancelled governor did not stop the walk";
    } catch (const ucp::ResourceError& e) {
        EXPECT_EQ(e.status(), ucp::Status::kCancelled);
    }
}

}  // namespace
