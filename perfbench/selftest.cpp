// The benchmark's own checks: the percentile rule, failure counting, the
// traced pipeline reproducing the whole call, and the seeded inputs (the
// committed suites at the default seed, reordered copies at any other). Exits non-zero on the first failed check.
//
//   ctest --test-dir .bench_build      (or run perfbench_selftest directly)
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "gen/suites.hpp"

namespace {

int checks = 0;

void check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    std::cerr << "FAILED: " << what << '\n';
    std::exit(1);
}

const perfbench::Instance& find(const perfbench::Workload& w, const std::string& name) {
    for (const auto& inst : w.instances)
        if (inst.name == name) return inst;
    check(false, "instance " + name + " exists");
    std::abort();
}

void percentile_rule() {
    using perfbench::percentile;
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0);
    std::shuffle(v.begin(), v.end(), std::mt19937(7));
    check(percentile(v, 90) == 90.0, "p90 of 1..100 is 90");
    check(percentile(v, 50) == 50.0, "p50 of 1..100 is 50");
    check(perfbench::samples_beyond(100, 90) == 10, "10 of 100 samples lie past p90");
    check(perfbench::samples_beyond(99, 90) == 9, "99 samples leave only 9 past p90");
    check(perfbench::min_solves_for(90, 10) == 100, "p90 needs 100 samples");

    // The runner keeps opening whole passes until the sample floor is met,
    // even with no time left, and solves every instance equally often.
    const auto loop = perfbench::closed_loop(11, 2, 0.0, perfbench::min_solves_for(90, 10),
                                             [](std::size_t i) { return i; });
    check(loop.samples.size() == 110 && loop.passes == 10, "10 whole passes of 11");
    std::vector<int> per(11, 0);
    for (std::size_t k = 0; k < loop.samples.size(); ++k) {
        check(loop.results[k] == loop.samples[k].instance, "result aligned with sample");
        ++per[loop.samples[k].instance];
    }
    for (const int c : per) check(c == 10, "each instance solved 10 times");
    check(perfbench::samples_beyond(loop.samples.size(), 90) >= 10,
          "at least 10 samples past p90");
}

void failure_counting() {
    const auto plaw = perfbench::make_workload("pla_concurrent", perfbench::kDefaultSeed);
    const auto& inst = find(plaw, "adder2");
    ucp::pla::Pla pla;
    ucp::pla::PlaDiagnostic diag;
    check(ucp::pla::parse_pla_string(inst.pla_text, pla, diag) == ucp::Status::kOk,
          "adder2 parses");
    const auto good = ucp::solver::minimize_two_level(pla, plaw.pla_options);
    check(perfbench::check_pla(pla, good).ok, "a correct PLA cover passes");

    auto dropped = good;  // a cube missing: some ON point uncovered
    dropped.cover.remove_at(0);
    dropped.cost -= 1;
    check(!perfbench::check_pla(pla, dropped).ok, "a cover missing a cube fails");

    auto widened = good;  // the universe cube asserts OFF points
    auto all = ucp::pla::Cube::full_inputs(pla.space());
    for (std::uint32_t k = 0; k < pla.space().num_outputs; ++k)
        all.set_out(pla.space(), k, true);
    widened.cover.add(all);
    widened.cost += 1;
    check(!perfbench::check_pla(pla, widened).ok, "a cover asserting OFF points fails");

    auto bad_status = good;
    bad_status.status = ucp::Status::kDeadline;
    check(!perfbench::check_pla(pla, bad_status).ok, "a non-ok status fails");

    const auto matw = perfbench::make_workload("unicost_scp", perfbench::kDefaultSeed);
    const auto& m = find(matw, "u120x60k3").matrix;
    const auto r = ucp::solver::solve_portfolio(m, matw.portfolio_options);
    check(perfbench::check_matrix(m, r.solution, r.cost, r.lower_bound, r.status).ok,
          "a correct matrix cover passes");
    auto short_sol = r.solution;  // irredundant, so dropping a column uncovers a row
    short_sol.pop_back();
    check(!perfbench::check_matrix(m, short_sol, r.cost - 1, r.lower_bound, r.status).ok,
          "an infeasible matrix cover fails");
    check(!perfbench::check_matrix(m, r.solution, r.cost - 1, r.lower_bound, r.status).ok,
          "a misreported cost fails");

    // Tally: a not-ok answer and an answer differing from its instance's
    // first one each count as one failed solve.
    perfbench::Answer ok;
    ok.ok = true;
    ok.cost = 5;
    perfbench::Answer other = ok;
    other.cost = 6;
    perfbench::Answer broken;
    const std::vector<perfbench::Sample> samples = {
        {0, 0, 1.0}, {1, 1, 1.0}, {2, 0, 1.0}, {3, 1, 1.0}, {4, 0, 1.0}, {5, 1, 1.0}};
    const perfbench::Tally t =
        perfbench::tally(samples, {ok, ok, ok, other, broken, ok}, 2);
    check(t.failed == 2, "tally counts a differing and a broken answer");
    check(t.reference[1].cost == 5, "the reference is the first answer");
}

void composed_equals_whole() {
    const auto plaw = perfbench::make_workload("pla_concurrent", perfbench::kDefaultSeed);
    const auto matw = perfbench::make_workload("unicost_scp", perfbench::kDefaultSeed);
    const struct {
        const perfbench::Workload* w;
        const char* name;
        perfbench::Span span;  // a layer this instance must load
    } cases[] = {
        {&plaw, "parity4", perfbench::kPrimesImplicit},  // one output
        {&plaw, "adder2", perfbench::kPrimesConsensus},  // several outputs
        {&matw, "u120x60k3", perfbench::kPortfolio},
    };
    for (const auto& c : cases) {
        const auto& inst = find(*c.w, c.name);
        const perfbench::Answer whole = perfbench::solve_whole(*c.w, inst);
        const perfbench::Traced traced = perfbench::solve_traced(*c.w, inst, true);
        const std::string n = c.name;
        check(whole.ok, n + ": whole call checks out");
        check(traced.answer.ok, n + ": composed pipeline checks out");
        check(traced.answer.same(whole), n + ": same cost, bound and cover");
        check(traced.answer.primes == whole.primes && traced.answer.rows == whole.rows,
              n + ": same prime and row counts");
        check(traced.ms[c.span] > 0.0, n + ": the layer's span was recorded");
    }
}

/// The PLA text's lines in sorted order: equal for two PLAs that differ
/// only in the order of their cubes.
std::vector<std::string> sorted_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::vector<ucp::cov::Index> row_sizes(const ucp::cov::CoverMatrix& m) {
    std::vector<ucp::cov::Index> sizes;
    for (ucp::cov::Index i = 0; i < m.num_rows(); ++i) sizes.push_back(m.live_row_size(i));
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

void seeded_inputs() {
    using perfbench::kDefaultSeed;
    // The default seed gives the committed suites exactly.
    std::vector<ucp::gen::SuiteEntry> committed;
    for (auto maker : {ucp::gen::easy_cyclic_suite, ucp::gen::difficult_cyclic_suite,
                       ucp::gen::challenging_suite})
        for (auto& e : maker()) committed.push_back(std::move(e));
    const auto plaw = perfbench::make_workload("pla_concurrent", kDefaultSeed);
    check(plaw.instances.size() == 72 && committed.size() == 72, "72 PLAs");
    for (std::size_t i = 0; i < committed.size(); ++i)
        check(plaw.instances[i].name == committed[i].name &&
                  plaw.instances[i].pla_text == ucp::pla::write_pla_string(committed[i].pla),
              "default seed gives PLA " + committed[i].name);
    const auto unicost = ucp::gen::unicost_suite();
    const auto matw = perfbench::make_workload("unicost_scp", kDefaultSeed);
    const auto draws = static_cast<std::size_t>(perfbench::kMatrixDraws);
    check(matw.instances.size() == 11 * draws && unicost.size() == 11, "11 matrices");
    for (std::size_t i = 0; i < matw.instances.size(); ++i)
        check(matw.instances[i].name == unicost[i / draws].name &&
                  matw.instances[i].matrix.to_string() ==
                      unicost[i / draws].matrix.to_string(),
              "default seed gives matrix " + unicost[i / draws].name);

    // Another seed gives the same functions and matrices in another order.
    const auto plao = perfbench::make_workload("pla_concurrent", 1);
    std::size_t reordered = 0;
    for (std::size_t i = 0; i < committed.size(); ++i) {
        const auto& a = plaw.instances[i].pla_text;
        const auto& b = plao.instances[i].pla_text;
        check(sorted_lines(a) == sorted_lines(b), "seed 1 keeps the cubes of " +
                                                      committed[i].name);
        reordered += a != b ? 1 : 0;
    }
    check(reordered >= 60, "seed 1 reorders the cubes of nearly every PLA");
    const auto mato = perfbench::make_workload("unicost_scp", 1);
    for (std::size_t i = 0; i < matw.instances.size(); ++i) {
        const std::string& name = unicost[i / draws].name;
        const auto& a = matw.instances[i].matrix;
        const auto& b = mato.instances[i].matrix;
        check(a.num_cols() == b.num_cols() && row_sizes(a) == row_sizes(b) &&
                  a.costs().size() == b.costs().size(),
              "seed 1 keeps the shape of matrix " + name);
        check(a.to_string() != b.to_string(), "seed 1 reorders matrix " + name);
        if (i % draws != 0)
            check(b.to_string() != mato.instances[i - 1].matrix.to_string(),
                  "seed 1 draws each copy of " + name + " anew");
    }
}

}  // namespace

int main() {
    percentile_rule();
    failure_counting();
    composed_equals_whole();
    seeded_inputs();
    std::cout << "perfbench self-test: " << checks << " checks passed\n";
    return 0;
}
