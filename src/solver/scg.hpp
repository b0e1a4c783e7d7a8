// The paper's algorithm: SCG (subgradient-driven constructive greedy), the
// explicit phase of ZDD_SCG (Fig. 2).
//
// Outer loop: NumIter runs. Each run starts from the saved exact cyclic core
// and repeatedly
//   1. runs SubgradientAscent → (λ, µ, LB, incumbent);
//   2. applies the Lagrangian and dual penalty tests (§3.6) to fix/remove
//      columns;
//   3. adds the "promising" columns (c̃_j ≤ ĉ and µ_j ≥ µ̂, §3.7);
//   4. rates the rest with σ = c̃ − α·µ and fixes one more column — the best
//      one in run 1, a random one of the best `BestCol` in later runs;
//   5. re-reduces the matrix to a fixed point;
// until the matrix empties or the local bound proves no improvement is
// possible. The incumbent is made irredundant at the end of each run.
// BestCol grows from run to run to widen the explored region (§4).
//
// With the default best_col_start = 1, run 2 is as deterministic as run 1:
// it can only differ where its lower incumbent changes a penalty test or
// the local-bound break. Run 1 therefore records its fixing trajectory as a
// *spine* (decisions, ascent results, dual-penalty probes), and every later
// run takes the recorded ascent for each step whose decisions match the
// spine's instead of recomputing it. Bit-identical to recomputing; it is
// what makes the deterministic restart cheap (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "lagrangian/subgradient.hpp"
#include "matrix/sparse_matrix.hpp"

namespace ucp::solver {

struct ScgOptions {
    int num_iter = 4;          ///< NumIter: number of constructive runs
    int best_col_start = 1;    ///< BestCol for run 2 (run 1 is deterministic)
    int best_col_growth = 2;   ///< BestCol increment per run
    double alpha = 2.0;        ///< σ = c̃ − α·µ (paper: α = 2)
    double c_hat = 0.001;      ///< promising-column threshold on c̃
    double mu_hat = 0.999;     ///< promising-column threshold on µ
    bool use_lagrangian_penalties = true;
    bool use_dual_penalties = true;
    std::size_t dual_pen_max_cols = 100;  ///< paper: DualPen = 100
    /// The fixing loop works on an in-place live view of the core and only
    /// materialises a compacted matrix when the live fraction (min of live
    /// rows/cols over base dims) drops below this threshold. 1.0 = compact
    /// after every fixing step (the classical behaviour), 0.0 = never.
    /// Results are bit-identical for any value (see DESIGN.md §7). Keep it
    /// high: the subgradient iterates the base spans, so dead slots cost
    /// wall-clock — 0.9 caps that at ~10% while still skipping the rebuild
    /// after steps that removed almost nothing.
    double compact_live_fraction = 0.9;
    std::uint64_t seed = 0x5eed;
    double time_limit_seconds = 0.0;  ///< 0 = unlimited
    /// Independent stochastic multi-starts (embarrassingly parallel). Start 0
    /// uses `seed` verbatim — so num_starts = 1 reproduces the classic
    /// single-descent solver — and start s > 0 uses seed ⊕ splitmix(s), an
    /// independent SplitMix64-derived stream. Results reduce
    /// deterministically: best cost, ties broken by lowest start index, so
    /// the answer is bit-identical for every num_threads value.
    int num_starts = 1;
    /// Worker threads for the multi-start fan-out. 0 = auto
    /// (ThreadPool::default_threads(): UCP_THREADS env or hardware);
    /// 1 = serial. Has no effect when num_starts ≤ 1.
    int num_threads = 1;
    lagr::SubgradientOptions subgradient{};
    /// Optional resource governor (deadline / cancellation / iteration cap).
    /// Polled between fixing steps and charged per subgradient iteration; a
    /// trip ends the solve with the best-so-far incumbent and bound, reported
    /// through ScgResult::status. Multi-starts each run on a fork of this
    /// budget (shared deadline + cancel token, private fault/iteration
    /// counters) so fault injection trips deterministically regardless of
    /// num_threads. Not owned; nullptr = ungoverned.
    Budget* governor = nullptr;
    /// Optional warm incumbent (original column indices, feasible for the
    /// full matrix). Made irredundant and adopted when it beats the root
    /// incumbent, which tightens the penalty-test target best_cost −
    /// chosen_cost from the first fixing step — the cross-seeding hook the
    /// portfolio uses to feed an RWLS upper bound back into the Lagrangian
    /// fixing rule. Ignored when empty or infeasible.
    std::vector<cov::Index> warm_solution{};
    /// Optional progress log (one line per subgradient phase / run).
    /// Ignored by the parallel starts (s > 0) to keep output deterministic.
    std::ostream* log = nullptr;
};

struct ScgResult {
    std::vector<cov::Index> solution;  ///< original column indices, irredundant
    cov::Cost cost = 0;
    cov::Cost lower_bound = 0;       ///< best global Lagrangian bound, ⌈·⌉
    double lower_bound_fractional = 0.0;
    bool proved_optimal = false;     ///< cost == lower_bound
    int runs_executed = 0;
    int run_of_best = 0;             ///< the run (1-based) that found `solution`
    int starts_executed = 0;         ///< multi-starts actually run (≥ 1)
    int start_of_best = 0;           ///< the start (0-based) that found `solution`
    std::size_t subgradient_calls = 0;  ///< ascents actually run
    /// Fixing steps of runs ≥ 2 that took run 1's recorded ascent instead
    /// of re-running it (spine replay); subgradient_calls + replayed_steps
    /// is the number of ascents the paper's loop performs.
    std::size_t replayed_steps = 0;
    std::size_t columns_fixed_by_penalties = 0;
    std::size_t columns_removed_by_penalties = 0;
    double seconds = 0.0;
    /// kOk, or the governor trip that ended the solve early. The solution is
    /// feasible and lower_bound valid either way (anytime contract).
    Status status = Status::kOk;
};

/// Solves the unate covering problem heuristically with the SCG scheme.
ScgResult solve_scg(const cov::CoverMatrix& m, const ScgOptions& opt = {});

}  // namespace ucp::solver
