// One plain loop per kernel shape (sparse_ops.hpp). The masked elementwise
// loops compute the new value for every lane and store `alive ? v : x`, so
// a dead lane is written back with its own bits and the compiler can
// vectorize the loop at the baseline ISA (DESIGN.md §10).

#include "kernels/sparse_ops.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/stats.hpp"

namespace ucp::kern {

void step_clamp_nonneg(double* x, const double* d, double step,
                       const char* alive, std::size_t n) {
    if (alive == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            x[i] = std::max(x[i] + step * d[i], 0.0);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double v = std::max(x[i] + step * d[i], 0.0);
        x[i] = alive[i] ? v : x[i];
    }
}

void step_clamp01(double* x, const double* d, double step, const char* alive,
                  std::size_t n) {
    if (alive == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            x[i] = std::clamp(x[i] - step * d[i], 0.0, 1.0);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double v = std::clamp(x[i] - step * d[i], 0.0, 1.0);
        x[i] = alive[i] ? v : x[i];
    }
}

void rsub_masked(double* x, const double* c, const char* alive,
                 std::size_t n) {
    if (alive == nullptr) {
        for (std::size_t i = 0; i < n; ++i) x[i] = c[i] - x[i];
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double v = c[i] - x[i];
        x[i] = alive[i] ? v : x[i];
    }
}

void copy_masked(double* dst, const double* src, const char* alive,
                 std::size_t n) {
    if (alive == nullptr) {
        for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double v = src[i];
        dst[i] = alive[i] ? v : dst[i];
    }
}

void select_fill(double* x, double v_alive, double v_dead, const char* alive,
                 std::size_t n) {
    if (alive == nullptr) {
        fill(x, v_alive, n);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) x[i] = alive[i] ? v_alive : v_dead;
}

void fill(double* x, double v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) x[i] = v;
}

Index32 argmin_ratio(const double* c, const Index32* nj, const char* alive,
                     const char* sel, std::size_t n) {
    static stats::Counter& c_scans = stats::counter("kernels.argmin_scans");
    c_scans.add();
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best = n;
    for (std::size_t j = 0; j < n; ++j) {
        if (alive != nullptr && !alive[j]) continue;
        if (sel != nullptr && sel[j]) continue;
        if (nj[j] == 0) continue;
        const double cj = std::max(c[j], 1e-9);
        const double score = cj / static_cast<double>(nj[j]);
        if (score < best_score) {
            best_score = score;
            best = j;
        }
    }
    return static_cast<Index32>(best);
}

namespace {
bool subset_words(const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t w) {
    for (std::size_t k = 0; k < w; ++k)
        if ((a[k] & b[k]) != a[k]) return false;
    return true;
}
}  // namespace

void subset_batch(const std::uint64_t* words, std::size_t wpr,
                  const std::uint64_t* a, const Index32* cand, std::size_t n,
                  char* out) {
    static stats::Counter& c_tests = stats::counter("kernels.subset_tests");
    c_tests.add(n);
    for (std::size_t t = 0; t < n; ++t)
        out[t] = subset_words(a, words + static_cast<std::size_t>(cand[t]) * wpr,
                              wpr)
                     ? 1
                     : 0;
}

Index32 subset_first(const std::uint64_t* words, std::size_t wpr,
                     const std::uint64_t* a, const Index32* cand,
                     std::size_t n) {
    static stats::Counter& c_tests = stats::counter("kernels.subset_tests");
    std::size_t t = 0;
    while (t < n &&
           !subset_words(a, words + static_cast<std::size_t>(cand[t]) * wpr,
                         wpr))
        ++t;
    // Early exit: only the probes actually executed count.
    c_tests.add(t < n ? t + 1 : n);
    return static_cast<Index32>(t);
}

std::size_t popcount_words(const std::uint64_t* w, std::size_t n) {
    std::size_t total = 0;
    for (std::size_t k = 0; k < n; ++k)
        total += static_cast<std::size_t>(std::popcount(w[k]));
    return total;
}

void build_bits_filtered(std::uint64_t* w, const Index32* idx, std::size_t n,
                         const char* keep) {
    if (keep == nullptr) {
        for (std::size_t k = 0; k < n; ++k)
            w[idx[k] >> 6] |= std::uint64_t{1} << (idx[k] & 63u);
        return;
    }
    for (std::size_t k = 0; k < n; ++k)
        if (keep[idx[k]]) w[idx[k] >> 6] |= std::uint64_t{1} << (idx[k] & 63u);
}

std::uint64_t sum_u32_masked(const Index32* v, const char* alive,
                             std::size_t n) {
    std::uint64_t total = 0;
    if (alive == nullptr) {
        for (std::size_t i = 0; i < n; ++i) total += v[i];
        return total;
    }
    for (std::size_t i = 0; i < n; ++i)
        if (alive[i]) total += v[i];
    return total;
}

std::size_t filter_remap(Index32* dst, const Index32* idx, std::size_t n,
                         const char* alive, const Index32* remap) {
    std::size_t out = 0;
    for (std::size_t k = 0; k < n; ++k)
        if (alive[idx[k]]) dst[out++] = remap[idx[k]];
    return out;
}

double dot_self(const double* x, std::size_t n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += x[i] * x[i];
    return total;
}

double dot_self_masked(const double* x, const char* alive, std::size_t n) {
    if (alive == nullptr) return dot_self(x, n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (alive[i]) total += x[i] * x[i];
    return total;
}

}  // namespace ucp::kern
