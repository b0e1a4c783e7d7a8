// The repository benchmark: workloads, checked solves, the traced layer
// pipeline and the closed-loop runner (perfbench/README.md).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "matrix/sparse_matrix.hpp"
#include "pla/pla_io.hpp"
#include "solver/portfolio.hpp"
#include "solver/two_level.hpp"
#include "util/timer.hpp"

namespace perfbench {

using ucp::cov::Cost;
using ucp::cov::Index;

/// Seed whose inputs are exactly the committed gen:: suites. Any other seed
/// draws an isomorphic copy of every instance: the same function with its ON
/// and DC cubes in a seeded order, the same matrix with its rows and columns
/// in a seeded order. The answers' costs and the solve times stay alike from
/// seed to seed while the inputs differ (perfbench/README.md says why the
/// random members are not re-drawn).
inline constexpr std::uint64_t kDefaultSeed = 0;
/// unicost_scp holds each matrix this many times in a row: at the default
/// seed the committed matrix every time, at any other seed that many
/// independent isomorphic copies.
inline constexpr int kMatrixDraws = 4;

struct Instance {
    std::string suite;     ///< committed baseline record it belongs to
    std::string name;
    std::string pla_text;  ///< PLA workloads: the serialised input
    ucp::cov::CoverMatrix matrix;  ///< matrix workloads: the input
};

struct Workload {
    bool pla = true;  ///< PLA text → minimize_two_level, else solve_portfolio
    int clients = 1;  ///< closed-loop clients
    std::vector<Instance> instances;
    ucp::solver::TwoLevelOptions pla_options;
    ucp::solver::PortfolioOptions portfolio_options;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Generates and serialises the workload's inputs and builds its solver
/// options. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The outcome of one solve as the benchmark checked it.
struct Answer {
    bool ok = false;  ///< no throw, status ok, cover checked
    Cost cost = 0;
    Cost lower_bound = 0;
    std::uint64_t digest = 0;  ///< hash of the cover / column set
    std::size_t primes = 0;    ///< PLA: columns of the covering table
    std::size_t rows = 0;      ///< PLA: rows of the covering table
    std::string error;

    /// Same answer: cost, bound and the cover itself.
    [[nodiscard]] bool same(const Answer& o) const {
        return ok == o.ok && cost == o.cost && lower_bound == o.lower_bound &&
               digest == o.digest;
    }
};

/// Checks a PLA result: status ok, cost = cover size, and the cover equals
/// the specification modulo don't-cares (verify_equivalence).
Answer check_pla(const ucp::pla::Pla& pla, const ucp::solver::TwoLevelResult& r);

/// Checks a matrix result row by row: every row hit by a chosen column, the
/// reported cost equal to the chosen columns' cost, status ok.
Answer check_matrix(const ucp::cov::CoverMatrix& m,
                    const std::vector<Index>& solution, Cost cost,
                    Cost lower_bound, ucp::Status status);

/// One whole-call solve: PLA text → parse_pla_string → minimize_two_level →
/// checked cover, or matrix → solve_portfolio → checked cover. Never throws.
Answer solve_whole(const Workload& w, const Instance& inst);

/// The layers the traced run times, one span each, in pipeline order.
enum Span : std::size_t {
    kParse,
    kPrimesImplicit,
    kPrimesConsensus,
    kOnset,
    kReduce,
    kDualAscent,
    kSubgradient,
    kScg,
    kPortfolio,
    kVerify,
    kNumSpans,
};
/// Metric name of each span ("pla.parse_ms", ...).
extern const std::array<const char*, kNumSpans> kSpanNames;
/// Spans that partition a solve (the rest re-run a solver-internal step on
/// the same input to time it alone, and the SCG leg of a portfolio solve is
/// inside the portfolio span). Their sum over the solve time is the span
/// coverage.
bool is_top_level(Span s, bool pla);

/// One traced solve: the same inputs driven through each layer's public
/// entry point in the order minimize_two_level / solve_portfolio call them.
struct Traced {
    Answer answer;  ///< the composed pipeline's answer (checked like a whole call)
    std::array<double, kNumSpans> ms{};
    /// Work counts: stats:: registry deltas around the layer calls (only
    /// when `count` was set), plus sizes read off the layer results.
    std::map<std::string, double> counts;
};
Traced solve_traced(const Workload& w, const Instance& inst, bool count);

// ---- closed-loop runner ---------------------------------------------------

struct Sample {
    std::size_t item = 0;      ///< position in the run: pass · n + instance
    std::size_t instance = 0;
    double ms = 0.0;
};

template <class R>
struct Loop {
    std::vector<Sample> samples;  ///< sorted by item
    std::vector<R> results;       ///< results[k] belongs to samples[k]
    std::size_t passes = 0;
    double wall_s = 0.0;
};

/// Runs `clients` closed-loop clients over one shared sequence of whole
/// passes over `n` instances: each client takes the next instance of the
/// sequence only after its previous solve returned, so the clients start
/// staggered and stay on different instances. A new
/// pass opens while less than `seconds` have elapsed or fewer than
/// `min_solves` solves were opened; every opened pass completes, so each
/// instance is solved equally often. `solve(instance)` must not throw.
template <class F>
auto closed_loop(std::size_t n, int clients, double seconds,
                 std::size_t min_solves, F&& solve)
    -> Loop<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    std::mutex mu;
    std::size_t next = 0;   // guarded by mu
    std::size_t limit = 0;  // guarded by mu: items opened so far
    const ucp::Timer clock;
    const auto take = [&](std::size_t& item) {
        const std::lock_guard<std::mutex> lock(mu);
        if (next == limit) {
            if (limit >= min_solves && limit > 0 && clock.seconds() >= seconds)
                return false;
            limit += n;
        }
        item = next++;
        return true;
    };
    std::vector<std::vector<std::pair<Sample, R>>> done(
        static_cast<std::size_t>(clients));
    const auto client = [&](std::size_t c) {
        std::size_t item = 0;
        while (take(item)) {
            const ucp::Timer t;
            R r = solve(item % n);
            done[c].emplace_back(Sample{item, item % n, t.milliseconds()},
                                 std::move(r));
        }
    };
    {
        std::vector<std::jthread> threads;
        for (std::size_t c = 1; c < done.size(); ++c) threads.emplace_back(client, c);
        client(0);
    }
    Loop<R> out;
    out.wall_s = clock.seconds();
    out.passes = limit / n;
    std::vector<std::pair<Sample, R>> all;
    for (auto& d : done)
        for (auto& e : d) all.push_back(std::move(e));
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.first.item < b.first.item; });
    for (auto& [s, r] : all) {
        out.samples.push_back(s);
        out.results.push_back(std::move(r));
    }
    return out;
}

/// Nearest-rank percentile (pct in 1..100) of unsorted samples: the value of
/// rank ⌈pct·N/100⌉, the smallest with at least pct% of the samples at or
/// below it. 0 for no samples.
double percentile(std::vector<double> v, int pct);
/// How many of n samples lie past the nearest-rank pct-th percentile's rank.
std::size_t samples_beyond(std::size_t n, int pct);
/// Fewest samples that leave at least `beyond` past the pct-th percentile.
std::size_t min_solves_for(int pct, std::size_t beyond);

/// Per-instance reference answers and the failure count of a run: a sample
/// fails when its answer is not ok or differs from its instance's first
/// answer in the run.
struct Tally {
    std::vector<Answer> reference;  ///< per instance, from its first item
    std::size_t failed = 0;
};
Tally tally(const std::vector<Sample>& samples, const std::vector<Answer>& answers,
            std::size_t n);

/// VmHWM of this process in MB.
double peak_rss_mb();

/// Host-speed probe. On a shared host the machine's speed drifts by up to
/// ±25% over seconds to minutes, and a memory-latency loop run between the
/// solves follows much of that drift (perfbench/RESULTS.md). Each of
/// `threads` threads chases pointers through its own 32 MB random cycle;
/// run() times all of them at once, with nothing else running, and returns
/// the mean ms per thread. The end-to-end times are scaled by
/// kProbeRefMs / (the run's median probe), so they read as on a host where
/// the probe takes kProbeRefMs. The probe's code is the benchmark's own, so
/// a change to the library does not move it.
class HostProbe {
public:
    static constexpr double kProbeRefMs = 160.0;
    explicit HostProbe(int threads);
    double run();
    /// Resident bytes of the probe's cycles, all touched on construction.
    [[nodiscard]] std::size_t bytes() const;

private:
    std::vector<std::vector<std::uint32_t>> cycles_;
    std::vector<std::uint32_t> at_;  ///< per thread: where the chase stopped
};

// ---- the runs -------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report {
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Answer> reference;      ///< per instance (answer gate)
    std::vector<std::string> notes;     ///< human-readable lines
};

/// The untraced run: the end-to-end metrics over `seconds` of closed-loop
/// solves, timed in segments of whole passes with a probe run and
/// `time_setup()` (one timed set-up, in seconds; called from every client
/// thread at once) repeated after each. Every time, set-up's too, is scaled
/// by the run's median probe.
Report run_end_to_end(const Workload& w, double seconds,
                      const std::function<double()>& time_setup, HostProbe& probe);

/// The traced run: untraced passes alternating with passes of the composed
/// layer pipeline for `seconds`; per-layer metrics, tracing overhead, span
/// coverage, and composed-equals-whole on every solve.
Report run_traced(const Workload& w, double seconds);

}  // namespace perfbench
