// Workload inputs, the checked whole-call solve and the traced layer pipeline.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cover/table_builder.hpp"
#include "gen/suites.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "lagrangian/subgradient.hpp"
#include "matrix/reductions.hpp"
#include "primes/explicit_primes.hpp"
#include "primes/implicit_primes.hpp"
#include "solver/scg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "zdd/zdd.hpp"

namespace perfbench {

using ucp::Status;
using ucp::pla::Cover;
using ucp::pla::Pla;

namespace {

/// Fisher–Yates shuffle driven by the repository's own generator, so a seed
/// gives the same order on every standard library.
template <class T>
void shuffle(std::vector<T>& v, ucp::Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

/// The generator for instance `index` of a run drawn from `seed`.
ucp::Rng instance_rng(std::uint64_t seed, std::size_t index) {
    ucp::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL ^ index);
    return ucp::Rng(sm.next());
}

/// Instance `index` of a run at `seed` (≠ kDefaultSeed): the committed PLA
/// with its ON and DC cubes in a seeded order.
Pla isomorphic_copy(Pla pla, std::uint64_t seed, std::size_t index) {
    ucp::Rng rng = instance_rng(seed, index);
    for (Cover* plane : {&pla.on, &pla.dc}) {
        std::vector<ucp::pla::Cube> cubes(plane->begin(), plane->end());
        shuffle(cubes, rng);
        Cover out(plane->space());
        for (auto& c : cubes) out.add(std::move(c));
        *plane = std::move(out);
    }
    return pla;
}

/// The committed matrix with its rows and columns in a seeded order.
ucp::cov::CoverMatrix isomorphic_copy(const ucp::cov::CoverMatrix& m,
                                      std::uint64_t seed, std::size_t index) {
    ucp::Rng rng = instance_rng(seed, index);
    std::vector<Index> label(m.num_cols());
    std::iota(label.begin(), label.end(), Index{0});
    shuffle(label, rng);
    std::vector<Index> order(m.num_rows());
    std::iota(order.begin(), order.end(), Index{0});
    shuffle(order, rng);
    std::vector<Cost> costs(m.num_cols());
    for (Index j = 0; j < m.num_cols(); ++j) costs[label[j]] = m.cost(j);
    std::vector<std::vector<Index>> rows;
    rows.reserve(order.size());
    for (const Index i : order) {
        std::vector<Index> row;
        for (const Index j : m.row(i)) row.push_back(label[j]);
        rows.push_back(std::move(row));
    }
    return ucp::cov::CoverMatrix::from_rows(m.num_cols(), std::move(rows),
                                            std::move(costs));
}

/// The 72 PLAs as (baseline suite, PLA).
std::vector<std::pair<std::string, Pla>> pla_suites(std::uint64_t seed) {
    std::vector<std::pair<std::string, Pla>> out;
    const auto add = [&](const char* suite, std::vector<ucp::gen::SuiteEntry> entries) {
        for (auto& e : entries) {
            const std::size_t index = out.size();
            out.emplace_back(suite, seed == kDefaultSeed
                                        ? std::move(e.pla)
                                        : isomorphic_copy(std::move(e.pla), seed, index));
        }
    };
    add("easy_cyclic", ucp::gen::easy_cyclic_suite());
    add("table1_difficult", ucp::gen::difficult_cyclic_suite());
    add("table2_challenging", ucp::gen::challenging_suite());
    return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"pla_concurrent", "unicost_scp"};
    return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
    Workload w;
    if (name != "pla_concurrent" && name != "unicost_scp")
        throw std::invalid_argument("unknown workload: " + name);
    // Several clients average the host's per-core speed, which drifts
    // (perfbench/RESULTS.md); one thread each keeps them within nproc.
    const unsigned hw = std::thread::hardware_concurrency();
    w.clients = hw == 0 ? 1 : static_cast<int>(std::min(4u, hw));
    if (name == "pla_concurrent") {
        for (auto& [suite, pla] : pla_suites(seed)) {
            Instance inst;
            inst.suite = suite;
            inst.name = pla.name;
            inst.pla_text = ucp::pla::write_pla_string(pla);
            w.instances.push_back(std::move(inst));
        }
        // The committed baselines' settings: unit cost, one SCG start. The
        // benchmark verifies every cover itself (check_pla).
        w.pla_options.verify = false;
    } else {
        w.pla = false;
        // Every matrix kMatrixDraws times in a pass. One draw's row and column
        // order can move its solve time up to 2x (the tie-breaks change the
        // solve path), so a seed's times average over several draws.
        for (auto& e : ucp::gen::unicost_suite()) {
            for (int k = 0; k < kMatrixDraws; ++k) {
                Instance inst;
                inst.suite = "portfolio";
                inst.name = e.name;
                inst.matrix = seed == kDefaultSeed
                                  ? e.matrix
                                  : isomorphic_copy(e.matrix, seed, w.instances.size());
                w.instances.push_back(std::move(inst));
            }
        }
        // bench_portfolio's settings, serial: the answer is the same for
        // every thread count.
        auto& p = w.portfolio_options;
        p.scg.num_iter = 2;
        p.scg.num_starts = 1;
        p.rwls_tasks = 4;
        p.rwls.max_steps = 30'000;
        p.num_threads = 1;
    }
    return w;
}

Answer check_pla(const Pla& pla, const ucp::solver::TwoLevelResult& r) {
    Answer a;
    a.cost = r.cost;
    a.lower_bound = r.lower_bound;
    a.primes = r.num_primes;
    a.rows = r.num_rows;
    if (r.status != Status::kOk) {
        a.error = std::string("status ") + ucp::to_string(r.status);
    } else if (static_cast<Cost>(r.cover.size()) != r.cost) {
        a.error = "cost differs from the cover size";
    } else if (r.lower_bound > r.cost) {
        a.error = "lower bound above the cost";
    } else if (!ucp::solver::verify_equivalence(pla, r.cover)) {
        a.error = "cover is not equivalent to the specification";
    } else {
        a.ok = true;
    }
    for (const auto& c : r.cover) a.digest = mix(a.digest, c.hash());
    return a;
}

Answer check_matrix(const ucp::cov::CoverMatrix& m,
                    const std::vector<Index>& solution, Cost cost,
                    Cost lower_bound, Status status) {
    Answer a;
    a.cost = cost;
    a.lower_bound = lower_bound;
    std::vector<char> chosen(m.num_cols(), 0);
    Cost sum = 0;
    for (const Index j : solution) {
        a.digest = mix(a.digest, j);
        if (j >= m.num_cols()) {
            a.error = "column out of range";
            return a;
        }
        if (chosen[j] == 0) sum += m.cost(j);
        chosen[j] = 1;
    }
    if (status != Status::kOk) {
        a.error = std::string("status ") + ucp::to_string(status);
        return a;
    }
    if (sum != cost) {
        a.error = "cost differs from the chosen columns' cost";
        return a;
    }
    if (lower_bound > cost) {
        a.error = "lower bound above the cost";
        return a;
    }
    for (Index i = 0; i < m.num_rows(); ++i) {
        bool hit = false;
        for (const Index j : m.row(i)) hit = hit || chosen[j] != 0;
        if (!hit) {
            a.error = "row " + std::to_string(i) + " uncovered";
            return a;
        }
    }
    a.ok = true;
    return a;
}

Answer solve_whole(const Workload& w, const Instance& inst) {
    try {
        if (!w.pla) {
            const auto r = ucp::solver::solve_portfolio(inst.matrix, w.portfolio_options);
            return check_matrix(inst.matrix, r.solution, r.cost, r.lower_bound,
                                r.status);
        }
        Pla pla;
        ucp::pla::PlaDiagnostic diag;
        if (ucp::pla::parse_pla_string(inst.pla_text, pla, diag, inst.name) !=
            Status::kOk) {
            Answer a;
            a.error = diag.to_string(inst.name);
            return a;
        }
        return check_pla(pla, ucp::solver::minimize_two_level(pla, w.pla_options));
    } catch (const std::exception& e) {
        Answer a;
        a.error = std::string("threw: ") + e.what();
        return a;
    }
}

const std::array<const char*, kNumSpans> kSpanNames = {
    "pla.parse_ms",         "primes.implicit_ms",        "primes.consensus_ms",
    "cover.onset_ms",       "matrix.reduce_ms",          "lagrangian.dual_ascent_ms",
    "lagrangian.subgradient_ms", "solver.scg_ms",        "solver.portfolio_ms",
    "pla.verify_ms",
};

bool is_top_level(Span s, bool pla) {
    switch (s) {
        case kReduce:
        case kDualAscent:
        case kSubgradient:
            return false;
        case kScg:
            return pla;
        default:
            return true;
    }
}

namespace {

/// stats:: registry delta over a scope, for the named counters.
class Delta {
public:
    explicit Delta(bool on) : on_(on) {
        if (on_) before_ = ucp::stats::snapshot();
    }
    template <std::size_t N>
    void add_to(std::map<std::string, double>& out,
                const std::array<const char*, N>& names) const {
        if (!on_) return;
        const auto now = ucp::stats::snapshot();
        for (const char* n : names) {
            const auto a = now.find(n);
            const auto b = before_.find(n);
            out[n] += (a == now.end() ? 0.0 : a->second) -
                      (b == before_.end() ? 0.0 : b->second);
        }
    }

private:
    bool on_;
    std::map<std::string, double> before_;
};

constexpr std::array<const char*, 6> kDdCounters = {
    "zdd.cache_hits", "zdd.cache_misses", "zdd.gc_runs",
    "zdd.chain_hits", "bdd.cache_hits",   "bdd.cache_misses"};
constexpr std::array<const char*, 8> kSolverCounters = {
    "reduce.passes",    "subgradient.iterations", "scg.subgradient_calls",
    "rwls.steps",       "rwls.improvements",      "portfolio.polish_wins",
    "kernels.subset_tests", "kernels.argmin_scans"};

/// Times fn() into `ms` and returns its result.
template <class F>
auto span(double& ms, F&& fn) {
    ucp::Timer t;
    auto r = fn();
    ms += t.milliseconds();
    return r;
}

/// Root calls of the Lagrangian layer on a cyclic core, as SCG makes them.
void root_lagrangian(Traced& t, const ucp::cov::ReduceResult& red,
                     const ucp::solver::ScgOptions& scg) {
    t.counts["matrix.core_rows"] += red.core.num_rows();
    t.counts["matrix.core_cols"] += red.core.num_cols();
    if (red.solved()) return;
    span(t.ms[kDualAscent], [&] { return ucp::lagr::dual_ascent(red.core); });
    span(t.ms[kSubgradient],
         [&] { return ucp::lagr::subgradient_ascent(red.core, scg.subgradient); });
}

void traced_pla(const Workload& w, const Instance& inst, bool count, Traced& t) {
    const auto& opt = w.pla_options;
    Pla pla;
    ucp::pla::PlaDiagnostic diag;
    const Status st = span(t.ms[kParse], [&] {
        return ucp::pla::parse_pla_string(inst.pla_text, pla, diag, inst.name);
    });
    if (st != Status::kOk) {
        t.answer.error = diag.to_string(inst.name);
        return;
    }

    // Primes exactly as build_covering_table picks them under
    // PrimeMethod::kAuto: implicit for one output, consensus otherwise.
    const Delta dd(count);
    const auto& s = pla.space();
    Cover care = pla.on;
    care.append(pla.dc);
    ucp::cover::CoveringTable table;
    table.primes = Cover(s);
    if (s.num_outputs == 1) {
        const Cover in_primes = span(t.ms[kPrimesImplicit], [&] {
            ucp::zdd::ZddManager zmgr(2 * s.num_inputs, opt.table.dd);
            const auto r = ucp::primes::implicit_primes(
                zmgr, care.restricted_to_output(0), opt.table.dd);
            return ucp::primes::primes_zdd_to_cover(zmgr, r.primes, s.num_inputs);
        });
        const ucp::pla::CubeSpace in_space{s.num_inputs, 0};
        for (const auto& c : in_primes) {
            auto mc = ucp::pla::Cube::full_inputs(s);
            for (std::uint32_t i = 0; i < s.num_inputs; ++i)
                mc.set_in(s, i, c.in(in_space, i));
            mc.set_out(s, 0, true);
            table.primes.add(std::move(mc));
        }
    } else {
        table.primes = span(t.ms[kPrimesConsensus], [&] {
            return ucp::primes::primes_by_consensus(care, opt.table.max_primes);
        });
    }
    const auto onset = span(t.ms[kOnset], [&] {
        return ucp::cover::onset_covering_matrix(pla, table.primes, opt.table.max_rows,
                                                 opt.table.dd, opt.table.row_method);
    });
    dd.add_to(t.counts, kDdCounters);
    t.counts["primes.count"] += static_cast<double>(table.primes.size());
    t.counts["cover.rows"] += onset.matrix.num_rows();
    t.counts["cover.onset_minterms"] += onset.onset_minterms;

    root_lagrangian(t, span(t.ms[kReduce], [&] { return ucp::cov::reduce(onset.matrix); }),
                    opt.scg);

    const Delta solver(count);
    const auto scg = span(t.ms[kScg],
                          [&] { return ucp::solver::solve_scg(onset.matrix, opt.scg); });
    solver.add_to(t.counts, kSolverCounters);

    ucp::solver::TwoLevelResult r;
    r.num_primes = table.primes.size();
    r.num_rows = onset.matrix.num_rows();
    table.column_prime.resize(r.num_primes);
    for (std::size_t j = 0; j < r.num_primes; ++j)
        table.column_prime[j] = static_cast<Index>(j);
    r.cover = ucp::cover::solution_to_cover(table, scg.solution);
    r.cost = static_cast<Cost>(r.cover.size());
    r.lower_bound = scg.lower_bound;
    r.status = scg.status;
    t.answer = span(t.ms[kVerify], [&] { return check_pla(pla, r); });
}

void traced_matrix(const Workload& w, const Instance& inst, bool count, Traced& t) {
    const auto& opt = w.portfolio_options;
    const auto& m = inst.matrix;
    root_lagrangian(t, span(t.ms[kReduce], [&] { return ucp::cov::reduce(m); }),
                    opt.scg);
    // The portfolio's phase 1 alone, then the whole portfolio: the polish
    // layers' time is the difference.
    const auto scg =
        span(t.ms[kScg], [&] { return ucp::solver::solve_scg(m, opt.scg); });
    const Delta solver(count);
    const auto port = span(t.ms[kPortfolio],
                           [&] { return ucp::solver::solve_portfolio(m, opt); });
    solver.add_to(t.counts, kSolverCounters);
    t.answer = check_matrix(m, port.solution, port.cost, port.lower_bound, port.status);
    if (t.answer.ok && scg.cost != port.scg_cost) {
        t.answer.ok = false;
        t.answer.error = "SCG leg differs from the portfolio's phase 1";
    }
}

}  // namespace

Traced solve_traced(const Workload& w, const Instance& inst, bool count) {
    Traced t;
    try {
        if (w.pla)
            traced_pla(w, inst, count, t);
        else
            traced_matrix(w, inst, count, t);
    } catch (const std::exception& e) {
        t.answer.ok = false;
        t.answer.error = std::string("threw: ") + e.what();
    }
    return t;
}

}  // namespace perfbench
