// Prime generation: explicit consensus and implicit BDD→ZDD methods validated
// against a brute-force prime enumerator on small functions, and against each
// other and the tabular method on larger functions with up to four outputs.
// Both generators must emit the canonical prime order, and the consensus
// closure must reproduce a test-local reference closure cube for cube once
// that is sorted into the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/pla_gen.hpp"
#include "pla/urp.hpp"
#include "primes/explicit_primes.hpp"
#include "primes/implicit_primes.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ucp::Rng;
using ucp::pla::Cover;
using ucp::pla::Cube;
using ucp::pla::CubeSpace;
using ucp::pla::Lit;

Cover random_cover(Rng& rng, std::uint32_t n, std::uint32_t m,
                   std::size_t cubes, double lit_prob) {
    const CubeSpace s{n, m};
    Cover f(s);
    for (std::size_t c = 0; c < cubes; ++c) {
        Cube cube = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < n; ++i)
            if (rng.chance(lit_prob))
                cube.set_in(s, i, rng.chance(0.5) ? Lit::kOne : Lit::kZero);
        bool any = m == 0;
        for (std::uint32_t k = 0; k < m; ++k)
            if (rng.chance(0.6)) {
                cube.set_out(s, k, true);
                any = true;
            }
        if (!any) cube.set_out(s, 0, true);
        f.add(std::move(cube));
    }
    return f;
}

/// Is `c` an implicant of `f` (point containment, brute force)?
bool brute_implicant(const Cover& f, const Cube& c) {
    const CubeSpace& s = f.space();
    bool ok = true;
    f.for_each_assignment([&](std::uint64_t a) {
        if (!c.covers_assignment(s, {a})) return;
        if (s.num_outputs == 0) {
            if (!f.eval({a})) ok = false;
        } else {
            for (std::uint32_t k = 0; k < s.num_outputs; ++k)
                if (c.out(s, k) && !f.eval({a}, k)) ok = false;
        }
    });
    return ok;
}

/// All primes by brute force: every implicant cube, filtered by maximality.
std::set<std::string> brute_primes(const Cover& f) {
    const CubeSpace& s = f.space();
    std::vector<Cube> implicants;
    // Enumerate all 3^n input cubes × all output subsets.
    std::vector<std::uint32_t> digits(s.num_inputs, 0);
    const std::uint32_t out_limit =
        s.num_outputs == 0 ? 1 : (1u << s.num_outputs);
    while (true) {
        Cube base = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < s.num_inputs; ++i)
            base.set_in(s, i,
                        digits[i] == 0 ? Lit::kDontCare
                                       : (digits[i] == 1 ? Lit::kZero : Lit::kOne));
        for (std::uint32_t om = s.num_outputs == 0 ? 0 : 1; om < out_limit; ++om) {
            Cube c = base;
            for (std::uint32_t k = 0; k < s.num_outputs; ++k)
                c.set_out(s, k, ((om >> k) & 1) != 0);
            if (brute_implicant(f, c)) implicants.push_back(c);
        }
        // Next cube in 3^n counter.
        std::uint32_t i = 0;
        for (; i < s.num_inputs; ++i) {
            if (++digits[i] < 3) break;
            digits[i] = 0;
        }
        if (i == s.num_inputs) break;
    }
    std::set<std::string> primes;
    for (const auto& c : implicants) {
        bool maximal = true;
        for (const auto& d : implicants)
            if (!(d == c) && d.contains(s, c)) maximal = false;
        if (maximal) primes.insert(c.to_string(s));
    }
    return primes;
}

std::set<std::string> cover_strings(const Cover& f) {
    std::set<std::string> out;
    for (const auto& c : f) out.insert(c.to_string(f.space()));
    return out;
}

/// The canonical prime order, spelled out literal by literal: input by input
/// ascending with 1 < 0 < −.
Cover canonically_sorted(const Cover& f) {
    const CubeSpace& s = f.space();
    const auto rank = [&](const Cube& c, std::uint32_t i) {
        switch (c.in(s, i)) {
            case Lit::kOne: return 0;
            case Lit::kZero: return 1;
            default: return 2;
        }
    };
    std::vector<Cube> cubes(f.begin(), f.end());
    std::stable_sort(cubes.begin(), cubes.end(), [&](const Cube& a, const Cube& b) {
        for (std::uint32_t i = 0; i < s.num_inputs; ++i)
            if (rank(a, i) != rank(b, i)) return rank(a, i) < rank(b, i);
        return false;
    });
    Cover out(s);
    for (auto& c : cubes) out.add(std::move(c));
    return out;
}

void expect_same_sequence(const Cover& want, const Cover& got) {
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]) << "cube " << i << ": "
                                   << want[i].to_string(want.space()) << " vs "
                                   << got[i].to_string(got.space());
}

/// The iterated-consensus closure as first written, one heap-allocated Cube
/// per working-set entry and two absorption scans per insert: the reference
/// whose statistics primes_by_consensus must reproduce exactly, and whose
/// cubes it must return in the canonical order.
Cover reference_consensus(const Cover& care, ucp::primes::ConsensusStats& st) {
    const CubeSpace& s = care.space();
    std::vector<Cube> cubes;
    std::vector<bool> dead;
    const auto insert = [&](Cube c) {
        if (!c.valid(s)) return;
        for (std::size_t i = 0; i < cubes.size(); ++i)
            if (!dead[i] && cubes[i].contains(s, c)) return;
        for (std::size_t i = 0; i < cubes.size(); ++i)
            if (!dead[i] && c.contains(s, cubes[i])) {
                dead[i] = true;
                ++st.cubes_absorbed;
            }
        cubes.push_back(std::move(c));
        dead.push_back(false);
        ++st.cubes_added;
    };
    for (const auto& c : care) insert(c);
    std::size_t frontier_start = 0;
    while (frontier_start < cubes.size()) {
        const std::size_t frontier_end = cubes.size();
        ++st.passes;
        for (std::size_t j = frontier_start; j < frontier_end; ++j) {
            if (dead[j]) continue;
            for (std::size_t i = 0; i < j; ++i) {
                if (dead[i] || dead[j]) continue;
                ++st.consensus_attempts;
                const Cube a = cubes[i], b = cubes[j];
                if (const auto cons = a.consensus(s, b)) insert(*cons);
                if (dead[i] || dead[j]) continue;
                if (const auto ocons = a.output_consensus(s, b)) insert(*ocons);
            }
        }
        frontier_start = frontier_end;
    }
    Cover out(s);
    for (std::size_t i = 0; i < cubes.size(); ++i)
        if (!dead[i]) out.add(cubes[i]);
    return out;
}

TEST(ExplicitPrimes, ClosureMatchesReferenceSequenceAndStats) {
    Rng rng(1207);
    for (int trial = 0; trial < 60; ++trial) {
        const auto n = static_cast<std::uint32_t>(3 + trial % 8);  // 3..10
        const auto m = static_cast<std::uint32_t>(trial % 5);      // 0..4
        const Cover f =
            random_cover(rng, n, m, 4 + trial % 11, 0.3 + 0.05 * (trial % 8));
        ucp::primes::ConsensusStats want_st, got_st;
        const Cover want = canonically_sorted(reference_consensus(f, want_st));
        const Cover got = ucp::primes::primes_by_consensus(f, 1u << 20, &got_st);
        SCOPED_TRACE(f.to_string());
        expect_same_sequence(want, got);
        EXPECT_EQ(want_st.consensus_attempts, got_st.consensus_attempts);
        EXPECT_EQ(want_st.cubes_added, got_st.cubes_added);
        EXPECT_EQ(want_st.cubes_absorbed, got_st.cubes_absorbed);
        EXPECT_EQ(want_st.passes, got_st.passes);
    }
}

TEST(ExplicitPrimes, ClosureMatchesReferenceAcrossWordBoundaries) {
    // Covers wider than one 64-bit word on the input and the output side:
    // near-copies of one base cube, so consensus pairs conflict on inputs in
    // either word.
    Rng rng(1223);
    for (const auto& [n, m] : {std::pair{70u, 0u}, std::pair{70u, 3u},
                              std::pair{130u, 2u}, std::pair{66u, 66u}}) {
        const CubeSpace s{n, m};
        Cube base = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < n; ++i)
            if (rng.chance(0.2))
                base.set_in(s, i, rng.chance(0.5) ? Lit::kOne : Lit::kZero);
        Cover f(s);
        for (int c = 0; c < 9; ++c) {
            Cube cube = base;
            for (int t = 0; t < 4; ++t)
                cube.set_in(s, static_cast<std::uint32_t>(rng.below(n)),
                            rng.chance(0.5) ? Lit::kOne : Lit::kZero);
            for (std::uint32_t k = 0; k < m; ++k)
                if (rng.chance(0.5)) cube.set_out(s, k, true);
            if (m > 0) cube.set_out(s, static_cast<std::uint32_t>(rng.below(m)), true);
            f.add(std::move(cube));
        }
        ucp::primes::ConsensusStats want_st, got_st;
        const Cover want = canonically_sorted(reference_consensus(f, want_st));
        const Cover got = ucp::primes::primes_by_consensus(f, 1u << 20, &got_st);
        SCOPED_TRACE(std::to_string(n) + " inputs, " + std::to_string(m) + " outputs");
        EXPECT_GT(want_st.cubes_added, f.size()) << "no consensus was formed";
        expect_same_sequence(want, got);
        EXPECT_EQ(want_st.consensus_attempts, got_st.consensus_attempts);
        EXPECT_EQ(want_st.cubes_added, got_st.cubes_added);
        EXPECT_EQ(want_st.cubes_absorbed, got_st.cubes_absorbed);
    }
}

TEST(ExplicitPrimes, ClosureOrderIgnoresInputCubeOrder) {
    Rng rng(1231);
    for (int trial = 0; trial < 30; ++trial) {
        const auto n = static_cast<std::uint32_t>(3 + trial % 8);
        const auto m = static_cast<std::uint32_t>(trial % 5);
        const Cover f = random_cover(rng, n, m, 6 + trial % 9, 0.4);
        const Cover want = ucp::primes::primes_by_consensus(f);
        std::vector<Cube> cubes(f.begin(), f.end());
        for (std::size_t i = cubes.size(); i > 1; --i)
            std::swap(cubes[i - 1], cubes[rng.below(i)]);
        Cover shuffled(f.space());
        for (auto& c : cubes) shuffled.add(std::move(c));
        SCOPED_TRACE(f.to_string());
        expect_same_sequence(want, ucp::primes::primes_by_consensus(shuffled));
    }
}

TEST(ExplicitPrimes, ClosureFlushesStatsCounters) {
    Rng rng(1213);
    const Cover f = random_cover(rng, 6, 3, 10, 0.5);
    const auto value = [](const char* name) {
        return ucp::stats::counter(name).value();
    };
    const auto attempts0 = value("primes.consensus_attempts");
    const auto added0 = value("primes.cubes_added");
    const auto absorbed0 = value("primes.cubes_absorbed");
    ucp::primes::ConsensusStats st;
    (void)ucp::primes::primes_by_consensus(f, 1u << 20, &st);
    EXPECT_EQ(value("primes.consensus_attempts") - attempts0, st.consensus_attempts);
    EXPECT_EQ(value("primes.cubes_added") - added0, st.cubes_added);
    EXPECT_EQ(value("primes.cubes_absorbed") - absorbed0, st.cubes_absorbed);
}

TEST(ExplicitPrimes, SingleOutputMatchesBruteForce) {
    Rng rng(1);
    for (int trial = 0; trial < 15; ++trial) {
        const Cover f = random_cover(rng, 4, 1, 4 + trial % 4, 0.55);
        const Cover primes = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(primes), brute_primes(f)) << f.to_string();
    }
}

TEST(ExplicitPrimes, MultiOutputMatchesBruteForce) {
    Rng rng(2);
    for (int trial = 0; trial < 12; ++trial) {
        const Cover f = random_cover(rng, 3, 2, 4 + trial % 3, 0.5);
        const Cover primes = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(primes), brute_primes(f)) << f.to_string();
    }
}

TEST(ExplicitPrimes, ThreeOutputsMatchBruteForce) {
    // With ≥ 3 outputs, completeness needs the distance-0 output-part
    // consensus: cubes with overlapping-but-incomparable output sets (e.g.
    // {o0,o1} and {o1,o2}) merge into their output union. This is the
    // regression test for the bug the end-to-end stress suite caught.
    Rng rng(21);
    for (int trial = 0; trial < 10; ++trial) {
        const Cover f = random_cover(rng, 2, 3, 4 + trial % 3, 0.4);
        const Cover primes = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(primes), brute_primes(f)) << f.to_string();
    }
}

TEST(ExplicitPrimes, OutputConsensusRegression) {
    // Two universal cubes asserting {o1,o2} and {o0,o1}: the prime {o0,o1,o2}
    // must be produced.
    const CubeSpace s{2, 3};
    const Cover f = Cover::from_strings(s, {{"--", "011"}, {"--", "110"}});
    const Cover primes = ucp::primes::primes_by_consensus(f);
    EXPECT_EQ(cover_strings(primes), (std::set<std::string>{"-- 111"}));
}

TEST(ExplicitPrimes, InputOnlyCover) {
    Rng rng(3);
    const Cover f = random_cover(rng, 4, 0, 5, 0.5);
    const Cover primes = ucp::primes::primes_by_consensus(f);
    EXPECT_EQ(cover_strings(primes), brute_primes(f));
}

TEST(ExplicitPrimes, KnownExample) {
    // f = x0 x1 + x0' x2: primes are the two cubes plus consensus x1 x2.
    const CubeSpace s{3, 0};
    const Cover f = Cover::from_strings(s, {{"11-", ""}, {"0-1", ""}});
    const Cover primes = ucp::primes::primes_by_consensus(f);
    EXPECT_EQ(cover_strings(primes),
              (std::set<std::string>{"11-", "0-1", "-11"}));
}

TEST(ExplicitPrimes, StatsAndLimit) {
    Rng rng(4);
    const Cover f = random_cover(rng, 5, 1, 8, 0.5);
    ucp::primes::ConsensusStats stats;
    (void)ucp::primes::primes_by_consensus(f, 1u << 20, &stats);
    EXPECT_GT(stats.cubes_added, 0u);
    EXPECT_THROW(ucp::primes::primes_by_consensus(f, 2), std::runtime_error);
}

TEST(ExplicitPrimes, PrimesAreAntichainAndImplicants) {
    Rng rng(5);
    const Cover f = random_cover(rng, 5, 2, 8, 0.5);
    const Cover primes = ucp::primes::primes_by_consensus(f);
    const CubeSpace& s = f.space();
    for (std::size_t i = 0; i < primes.size(); ++i) {
        EXPECT_TRUE(brute_implicant(f, primes[i]));
        for (std::size_t j = 0; j < primes.size(); ++j)
            if (i != j) {
                EXPECT_FALSE(primes[i].contains(s, primes[j]));
            }
    }
}

TEST(TabularPrimes, MatchesConsensusOnRandomFunctions) {
    Rng rng(8);
    for (int trial = 0; trial < 15; ++trial) {
        const Cover f = random_cover(rng, 5 + trial % 3, 0, 5 + trial % 4, 0.5);
        const Cover qm = ucp::primes::primes_by_tabular(f);
        const Cover cons = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(qm), cover_strings(cons)) << f.to_string();
    }
}

TEST(TabularPrimes, KnownExampleAndGuards) {
    const CubeSpace s{3, 0};
    const Cover f = Cover::from_strings(s, {{"11-", ""}, {"0-1", ""}});
    const Cover qm = ucp::primes::primes_by_tabular(f);
    EXPECT_EQ(cover_strings(qm), (std::set<std::string>{"11-", "0-1", "-11"}));

    // Empty function → no primes; tautology → the universal cube.
    EXPECT_EQ(ucp::primes::primes_by_tabular(Cover(s)).size(), 0u);
    Cover taut(s);
    taut.add(Cube::full_inputs(s));
    const Cover tp = ucp::primes::primes_by_tabular(taut);
    ASSERT_EQ(tp.size(), 1u);
    EXPECT_EQ(tp[0].input_literal_count(s), 0u);

    // Guards: multi-output covers and oversized minterm expansions rejected.
    EXPECT_THROW(ucp::primes::primes_by_tabular(Cover(CubeSpace{3, 1})),
                 std::invalid_argument);
    EXPECT_THROW(ucp::primes::primes_by_tabular(Cover(CubeSpace{10, 0}), 512),
                 std::invalid_argument);
}

TEST(ImplicitPrimes, MatchesExplicitOnRandomFunctions) {
    Rng rng(6);
    for (int trial = 0; trial < 12; ++trial) {
        const Cover f = random_cover(rng, 6, 0, 6 + trial % 5, 0.45);
        ucp::zdd::ZddManager zmgr(2 * 6);
        const auto imp = ucp::primes::implicit_primes(zmgr, f);
        const Cover decoded =
            ucp::primes::primes_zdd_to_cover(zmgr, imp.primes, 6);
        const Cover exp = ucp::primes::primes_by_consensus(f);
        expect_same_sequence(exp, decoded);
        EXPECT_DOUBLE_EQ(imp.prime_count, static_cast<double>(exp.size()));
    }
}

TEST(ImplicitPrimes, TautologyAndEmpty) {
    const CubeSpace s{3, 0};
    ucp::zdd::ZddManager zmgr(6);
    Cover empty(s);
    const auto pe = ucp::primes::implicit_primes(zmgr, empty);
    EXPECT_TRUE(pe.primes.is_empty());

    Cover taut(s);
    taut.add(Cube::full_inputs(s));
    const auto pt = ucp::primes::implicit_primes(zmgr, taut);
    EXPECT_TRUE(pt.primes.is_base());  // single prime: the universal cube
}

/// The multi-output primes of `care` from the tabular method alone: for every
/// nonempty output set S, the primes c of ∧_{k∈S} f_k whose full output set
/// {k : c ⊆ f_k} is exactly S, in the canonical order.
Cover tabular_multi_output_primes(const Cover& care) {
    const CubeSpace& s = care.space();
    const CubeSpace in_space{s.num_inputs, 0};
    const std::uint64_t points = std::uint64_t{1} << s.num_inputs;
    const auto minterm = [&](std::uint64_t a) {
        Cube c = Cube::full_inputs(in_space);
        for (std::uint32_t i = 0; i < s.num_inputs; ++i)
            c.set_in(in_space, i, ((a >> i) & 1) != 0 ? Lit::kOne : Lit::kZero);
        return c;
    };
    const auto implies = [&](const Cube& c, std::uint32_t k) {
        for (std::uint64_t a = 0; a < points; ++a)
            if (c.covers_assignment(in_space, {a}) && !care.eval({a}, k)) return false;
        return true;
    };
    Cover out(s);
    for (std::uint32_t set = 1; set < (1u << s.num_outputs); ++set) {
        Cover f_set(in_space);
        for (std::uint64_t a = 0; a < points; ++a) {
            bool all = true;
            for (std::uint32_t k = 0; k < s.num_outputs && all; ++k)
                if ((set >> k) & 1) all = care.eval({a}, k);
            if (all) f_set.add(minterm(a));
        }
        for (const auto& c : ucp::primes::primes_by_tabular(f_set)) {
            std::uint32_t support = 0;
            for (std::uint32_t k = 0; k < s.num_outputs; ++k)
                if (implies(c, k)) support |= 1u << k;
            if (support != set) continue;
            Cube mc = Cube::full_inputs(s);
            for (std::uint32_t i = 0; i < s.num_inputs; ++i)
                mc.set_in(s, i, c.in(in_space, i));
            for (std::uint32_t k = 0; k < s.num_outputs; ++k)
                mc.set_out(s, k, ((set >> k) & 1) != 0);
            out.add(std::move(mc));
        }
    }
    return canonically_sorted(out);
}

/// Primes of `care` through the characteristic function χ.
Cover chi_primes(const Cover& care, const ucp::zdd::DdOptions& dd = {}) {
    const CubeSpace& s = care.space();
    ucp::zdd::ZddManager zmgr(2 * (s.num_inputs + s.num_outputs), dd);
    const auto r = ucp::primes::implicit_primes(zmgr, care, dd);
    Cover out = ucp::primes::primes_zdd_to_cover(zmgr, r.primes, s);
    EXPECT_DOUBLE_EQ(r.prime_count, static_cast<double>(out.size()));
    return out;
}

TEST(ImplicitPrimes, CharacteristicFunctionMatchesConsensusAndTabular) {
    ucp::zdd::DdOptions chain, plain, tiny;
    chain.chain_nodes = true;
    plain.chain_nodes = false;
    tiny.cache_entries = 16;
    ucp::Rng seeds(1237);
    for (int trial = 0; trial < 32; ++trial) {
        ucp::gen::RandomPlaOptions opt;
        opt.num_inputs = 3 + static_cast<std::uint32_t>(trial % 8);   // 3..10
        opt.num_outputs = 1 + static_cast<std::uint32_t>(trial % 4);  // 1..4
        opt.num_cubes = 5 + static_cast<std::uint32_t>(trial % 11);
        opt.literal_prob = 0.35 + 0.05 * (trial % 7);
        opt.dc_fraction = trial % 3 == 0 ? 0.0 : 0.25;
        opt.seed = seeds();
        const ucp::pla::Pla p = ucp::gen::random_pla(opt);
        Cover care = p.on;
        care.append(p.dc);
        SCOPED_TRACE(p.name + " trial " + std::to_string(trial));

        const Cover want = tabular_multi_output_primes(care);
        // The order is total: no two primes share an input part.
        const CubeSpace in_space{care.space().num_inputs, 0};
        const auto inputs = [&](const Cube& c) {
            Cube ic = Cube::full_inputs(in_space);
            for (std::uint32_t i = 0; i < in_space.num_inputs; ++i)
                ic.set_in(in_space, i, c.in(care.space(), i));
            return ic;
        };
        for (std::size_t j = 1; j < want.size(); ++j)
            EXPECT_FALSE(inputs(want[j - 1]) == inputs(want[j])) << "prime " << j;
        expect_same_sequence(want, ucp::primes::primes_by_consensus(care));
        for (const auto& [name, dd] : {std::pair{"chain", chain},
                                       std::pair{"plain", plain},
                                       std::pair{"tiny-cache", tiny}}) {
            SCOPED_TRACE(name);
            expect_same_sequence(want, chi_primes(care, dd));
        }
    }
}

TEST(ImplicitPrimes, CharacteristicFunctionEdgeCases) {
    const CubeSpace s{3, 2};
    // No on-set: χ = ¬y0·¬y1, whose one prime asserts no output and is dropped.
    EXPECT_TRUE(chi_primes(Cover(s)).empty());
    // One tautological output: its universal cube, nothing for the other.
    const Cover one = Cover::from_strings(s, {{"---", "01"}});
    EXPECT_EQ(cover_strings(chi_primes(one)), (std::set<std::string>{"--- 01"}));
    // Both tautological: one prime asserting both.
    const Cover both = Cover::from_strings(s, {{"---", "11"}});
    EXPECT_EQ(cover_strings(chi_primes(both)), (std::set<std::string>{"--- 11"}));
    // Overlapping but incomparable output sets merge (the consensus path's
    // output-part consensus regression).
    const CubeSpace s3{2, 3};
    const Cover f = Cover::from_strings(s3, {{"--", "011"}, {"--", "110"}});
    EXPECT_EQ(cover_strings(chi_primes(f)), (std::set<std::string>{"-- 111"}));
}

TEST(ImplicitPrimes, GovernorStopsCharacteristicPath) {
    const ucp::pla::Pla p = [] {
        ucp::gen::RandomPlaOptions opt;
        opt.num_inputs = 7;
        opt.num_outputs = 3;
        opt.num_cubes = 16;
        opt.seed = 4219;
        return ucp::gen::random_pla(opt);
    }();
    Cover care = p.on;
    care.append(p.dc);
    ucp::CancelToken cancel;
    cancel.cancel();
    ucp::Budget cancelled(ucp::BudgetOptions{}, &cancel);
    ucp::BudgetOptions dopt;
    dopt.deadline_seconds = 1e-9;  // expired by the first poll
    ucp::Budget expired(dopt);
    for (auto [gov, want] : {std::pair{&cancelled, ucp::Status::kCancelled},
                             std::pair{&expired, ucp::Status::kDeadline}}) {
        ucp::zdd::DdOptions dd;
        dd.governor = gov;
        try {
            (void)chi_primes(care, dd);
            ADD_FAILURE() << "the χ path ignored a tripped governor";
        } catch (const ucp::ResourceError& e) {
            EXPECT_EQ(e.status(), want);
        }
    }
}

TEST(ImplicitPrimes, FlushesWorkCounters) {
    Rng rng(1249);
    const Cover f = random_cover(rng, 6, 3, 10, 0.5);
    const auto value = [](const char* name) {
        return ucp::stats::counter(name).value();
    };
    const auto calls0 = value("primes.implicit_calls");
    const auto bdd0 = value("primes.implicit_bdd_nodes");
    const auto zdd0 = value("primes.implicit_zdd_nodes");
    ucp::zdd::ZddManager zmgr(2 * (6 + 3));
    const auto r = ucp::primes::implicit_primes(zmgr, f);
    EXPECT_EQ(value("primes.implicit_calls") - calls0, 1u);
    EXPECT_EQ(value("primes.implicit_bdd_nodes") - bdd0, r.bdd_nodes);
    EXPECT_EQ(value("primes.implicit_zdd_nodes") - zdd0, r.zdd_nodes);
    EXPECT_GT(r.bdd_nodes, 0u);
    EXPECT_EQ(r.zdd_nodes, zmgr.node_count(r.primes));
}

TEST(ImplicitPrimes, CoverToBddRejectsOutputs) {
    ucp::zdd::BddManager bmgr(3);
    Cover f(CubeSpace{3, 1});
    EXPECT_THROW(ucp::primes::cover_to_bdd(bmgr, f), std::invalid_argument);
}

}  // namespace
