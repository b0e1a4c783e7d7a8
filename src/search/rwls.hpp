// Row Weighting Local Search (RWLS) for the covering problem — the
// local-search leg of the solver portfolio (docs/ALGORITHM.md, "Beyond the
// constructive scheme").
//
// Where SCG fixes columns constructively and never revisits a decision, RWLS
// keeps a complete candidate cover and walks the space of covers by swapping
// columns, guided by per-row penalty weights (Gao et al., "An efficient local
// search heuristic with row weighting for the unicost set covering problem"):
//
//   * every row i carries a weight w_i (starts at 1); whenever a step leaves
//     rows uncovered, each uncovered row's weight grows by 1 — hard rows
//     accumulate weight and attract the search back;
//   * every column j carries a score: for j outside the solution the total
//     weight of the uncovered rows it would cover (its gain, ≥ 0); for j
//     inside, minus the total weight of the rows only it covers (its loss,
//     ≤ 0). Scores are maintained incrementally under add/remove/reweight —
//     never recomputed — and `RwlsOptions::audit_every` cross-checks the
//     invariant against a from-scratch recompute in the tests;
//   * every row i carries the XOR of the solution columns covering it, so a
//     row with one coverer names that coverer in O(1) — the score updates
//     on a row's 1↔2 coverage transitions need no scan of the row (the
//     audit recomputes this invariant too);
//   * a step removes the least-useful solution column (highest score), picks
//     a random uncovered row and adds the best non-tabu column covering it
//     (highest score per unit cost); the removed column is tabu for
//     `tabu_tenure` steps so the pair is not immediately undone;
//   * whenever the candidate is feasible, zero-loss columns are stripped, the
//     incumbent is updated, and a column is removed to keep diving.
//
// The engine runs on a CoverMatrix or on a SubMatrix live view (dead slots
// skipped, base indices reported), is deterministic for a fixed seed, and is
// allocation-free after warm-up: all state lives in an RwlsWorkspace sized by
// fit() like the LagrangianWorkspace, with every growth counted in the
// "rwls.workspace_allocs" counter (pinned to 0 per step by the tests).
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/sparse_matrix.hpp"
#include "matrix/sub_matrix.hpp"
#include "util/budget.hpp"
#include "util/stats.hpp"

namespace ucp::search {

/// fit() twin of lagr::fit: resizes counting capacity growth, so the perf
/// tests can pin "rwls.workspace_allocs" to 0 after warm-up.
template <class T>
inline void rwls_fit(std::vector<T>& v, std::size_t n) {
    if (v.capacity() < n) {
        static stats::Counter& c_allocs =
            stats::counter("rwls.workspace_allocs");
        c_allocs.add();
        v.reserve(n);
    }
    v.resize(n);
}

struct RwlsOptions {
    /// Step budget: one remove+add swap (or one feasible-dive removal) per
    /// step. 0 = no step limit (only the governor stops the search).
    std::uint64_t max_steps = 20'000;
    /// Steps a just-removed column may not re-enter the cover. Small values
    /// (the literature uses 2–5) are enough to break remove/add cycles.
    std::uint64_t tabu_tenure = 3;
    std::uint64_t seed = 0x5eed;
    /// Stop as soon as the incumbent reaches this bound (it is provably
    /// optimal then). 0 with positive costs never triggers.
    cov::Cost target_lower_bound = 0;
    /// Debug/differential-test hook: every N steps recompute every score and
    /// row cover-set XOR from scratch and count disagreements in
    /// RwlsResult::audit_mismatches.
    /// 0 = off (the production setting; audits allocate nothing but cost a
    /// full O(nnz) sweep).
    std::uint64_t audit_every = 0;
    /// Warm start (base column indices): the search begins from this cover,
    /// greedily completed if it leaves rows uncovered and pruned of
    /// redundancy. Empty = start from a greedy cover built in place. This is
    /// how the portfolio hands the best SCG descent to the polish phase.
    std::vector<cov::Index> initial{};
    /// Optional resource governor, charged one iteration per step; a trip
    /// ends the search with the best cover found so far (always feasible —
    /// the incumbent is only ever replaced by feasible covers).
    Budget* governor = nullptr;
};

struct RwlsResult {
    std::vector<cov::Index> solution;  ///< base column indices, feasible
    cov::Cost cost = 0;
    std::uint64_t steps = 0;
    std::uint64_t improvements = 0;  ///< times the incumbent strictly improved
    std::uint64_t audits = 0;
    std::uint64_t audit_mismatches = 0;  ///< 0 unless the invariant broke
    Status status = Status::kOk;
    double seconds = 0.0;
};

/// All mutable search state, reusable across calls (one per thread — the
/// portfolio's polish tasks each own one). Buffers grow to the largest
/// problem seen, then stay put.
struct RwlsWorkspace {
    std::vector<std::int64_t> weight;       ///< per row: penalty weight w_i
    std::vector<cov::Index> cover_count;    ///< per row: |solution ∩ row(i)|
    /// per row: XOR of the solution columns covering it (0 when uncovered).
    /// With cover_count[i] == 1 this is the row's unique coverer, which the
    /// 1↔2 coverage transitions read in O(1) instead of scanning row(i).
    std::vector<cov::Index> cover_xor;
    std::vector<std::int64_t> score;        ///< per col: gain (out) / −loss (in)
    std::vector<char> in_solution;          ///< per col
    std::vector<std::uint64_t> tabu_until;  ///< per col: first non-tabu step
    std::vector<std::uint64_t> stamp;       ///< per col: step of last flip
    std::vector<cov::Index> solution;       ///< current cover, unordered
    std::vector<cov::Index> solution_pos;   ///< per col: index into `solution`
    std::vector<cov::Index> uncovered;      ///< uncovered rows, unordered
    std::vector<cov::Index> uncovered_pos;  ///< per row: index into `uncovered`
    std::vector<cov::Index> best;           ///< incumbent cover
    std::vector<std::int64_t> audit_score;  ///< scratch for audit sweeps

    /// Reserved footprint in bytes (memory-budget accounting).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return (weight.capacity() + score.capacity() +
                audit_score.capacity()) * sizeof(std::int64_t) +
               (cover_count.capacity() + cover_xor.capacity() +
                solution.capacity() + solution_pos.capacity() +
                uncovered.capacity() + uncovered_pos.capacity() +
                best.capacity()) * sizeof(cov::Index) +
               in_solution.capacity() * sizeof(char) +
               (tabu_until.capacity() + stamp.capacity()) * sizeof(std::uint64_t);
    }
};

/// Runs RWLS on covering matrix `m` (all rows/columns, or the live slice of
/// a SubMatrix view). Returns the best feasible cover found; deterministic
/// for a fixed seed and independent of thread count (the engine itself is
/// single-threaded — parallelism comes from running independent seeds).
RwlsResult rwls_improve(const cov::CoverMatrix& m, const RwlsOptions& opt,
                        RwlsWorkspace& ws);
RwlsResult rwls_improve(const cov::SubMatrix& m, const RwlsOptions& opt,
                        RwlsWorkspace& ws);

/// Convenience overload with a throwaway workspace.
RwlsResult rwls_improve(const cov::CoverMatrix& m, const RwlsOptions& opt = {});

}  // namespace ucp::search
