// Sparse-ops kernel layer for the explicit phase.
//
// The dominance reductions, the Lagrangian engine and the greedy heuristics
// spend their time in a handful of loop shapes over the flat CSR/CSC arrays:
// masked dense elementwise updates, span gather/scatter accumulations,
// argmin candidate scans and wide bitset subset tests. This header names
// those shapes once, and each has one implementation: a plain loop in
// sparse_ops.cpp, or inline below for the span kernels (DESIGN.md §10).
//
// Dead-lane contract: masked elementwise kernels leave the value of every
// dead lane (`alive[i] == 0`) unchanged. They may load and store the lane
// back, so its bits (NaN payloads, -0.0) survive exactly; that branch-free
// store lets the compiler vectorize the loop without intrinsics.
// Floating-point *reductions* (dot products, norm accumulations) keep their
// sequential order: reassociating them changes rounding.
//
// `alive` masks are byte masks (0 = dead, nonzero = alive) matching the
// SubMatrix representation; a null mask means "every lane alive".
#pragma once

#include <cstddef>
#include <cstdint>

namespace ucp::kern {

using Index32 = std::uint32_t;

// ---- masked dense elementwise (doubles) -------------------------------------

/// x[i] = max(x[i] + step * d[i], 0.0) for alive lanes (λ update, formula
/// (2)). Two rounding steps (mul then add), never fused.
void step_clamp_nonneg(double* x, const double* d, double step,
                       const char* alive, std::size_t n);

/// x[i] = clamp(x[i] - step * d[i], 0.0, 1.0) for alive lanes (µ update).
void step_clamp01(double* x, const double* d, double step, const char* alive,
                  std::size_t n);

/// x[i] = c[i] - x[i] for alive lanes (reduced-cost finalisation of the dual
/// subgradient g = c - A'm*).
void rsub_masked(double* x, const double* c, const char* alive, std::size_t n);

/// dst[i] = src[i] for alive lanes (c̃ re-initialisation from the cached
/// double costs).
void copy_masked(double* dst, const double* src, const char* alive,
                 std::size_t n);

/// x[i] = alive ? v_alive : v_dead — writes every lane (subgradient s init).
void select_fill(double* x, double v_alive, double v_dead, const char* alive,
                 std::size_t n);

/// x[i] = v for every lane.
void fill(double* x, double v, std::size_t n);

// ---- CSR/CSC span gather/scatter --------------------------------------------
// Indices within one adjacency span are sorted and distinct. These are
// defined inline: the subgradient loop makes tens of millions of calls on
// spans of a few entries, where a call costs as much as the loop body
// (DESIGN.md §10).

/// x[idx[k]] -= v for k in [0, n) (c̃ -= λ_i over a row span, ẽ -= µ_j over
/// a column span).
inline void span_sub(double* x, const Index32* idx, std::size_t n, double v) {
    for (std::size_t k = 0; k < n; ++k) x[idx[k]] -= v;
}

/// x[idx[k]] += v for k in [0, n) (dual-subgradient load accumulation).
inline void span_add(double* x, const Index32* idx, std::size_t n, double v) {
    for (std::size_t k = 0; k < n; ++k) x[idx[k]] += v;
}

/// x[idx[k]] -= v only where alive[idx[k]] (subgradient s update; dead slots
/// must stay exactly 0.0). Null mask = unmasked span_sub.
inline void span_sub_masked(double* x, const Index32* idx, std::size_t n,
                            double v, const char* alive) {
    for (std::size_t k = 0; k < n; ++k)
        if (alive == nullptr || alive[idx[k]]) x[idx[k]] -= v;
}

// ---- greedy candidate scan ---------------------------------------------------

/// Index of the first minimum of score(j) = max(c[j], 1e-9) / nj[j] over the
/// valid lanes (alive, not selected, nj > 0); returns n when no lane is
/// valid. Exactly the γ1 (cost / covered-rows) scan of lagrangian_greedy:
/// the first strictly-smaller score wins, so the result is the smallest
/// index attaining the minimum. `alive` / `sel` may be null (= all alive /
/// none selected). Counts one `kernels.argmin_scans` per call.
Index32 argmin_ratio(const double* c, const Index32* nj, const char* alive,
                     const char* sel, std::size_t n);

// ---- 64-bit-word bitset kernels ---------------------------------------------

/// out[t] = 1 iff the word row `a` is a subset of candidate row
/// words + cand[t] * wpr, word-wise (a & b) == a. Counts n
/// `kernels.subset_tests`.
void subset_batch(const std::uint64_t* words, std::size_t wpr,
                  const std::uint64_t* a, const Index32* cand, std::size_t n,
                  char* out);

/// First t with `a` ⊆ row cand[t], or n when none. Stops at the first hit
/// (the column-dominance scan stops at the first dominator) and counts only
/// the probes it ran in `kernels.subset_tests`.
Index32 subset_first(const std::uint64_t* words, std::size_t wpr,
                     const std::uint64_t* a, const Index32* cand,
                     std::size_t n);

/// Σ popcount(w[0..n)).
std::size_t popcount_words(const std::uint64_t* w, std::size_t n);

/// w[idx[k]/64] |= bit for every idx[k] with keep[idx[k]] != 0 (null keep =
/// all). The caller zeroes w first. Builds one bitset row from a filtered
/// adjacency span without the per-bit call overhead.
void build_bits_filtered(std::uint64_t* w, const Index32* idx, std::size_t n,
                         const char* keep);

// ---- integer sweeps ----------------------------------------------------------

/// Σ v[i] over alive lanes, widened to 64 bit (live-entry counts for the
/// density estimate in reduce_inplace).
std::uint64_t sum_u32_masked(const Index32* v, const char* alive,
                             std::size_t n);

/// dst[k'] = remap[idx[k]] for the idx[k] with alive[idx[k]] != 0, compacted
/// in order; returns the number written (SubMatrix::compact row rebuild).
std::size_t filter_remap(Index32* dst, const Index32* idx, std::size_t n,
                         const char* alive, const Index32* remap);

// ---- sequential floating-point reductions -----------------------------------
// Kept here so call sites state their reduction order explicitly.

/// Σ x[i]² in ascending order.
double dot_self(const double* x, std::size_t n);

/// Σ x[i]² over alive lanes, ascending order.
double dot_self_masked(const double* x, const char* alive, std::size_t n);

}  // namespace ucp::kern
