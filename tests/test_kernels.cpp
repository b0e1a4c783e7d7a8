// The sparse-ops kernel layer (kernels/sparse_ops.hpp) against reference
// loops kept in this file. The references use conditional stores, which
// never touch a dead lane, so they pin the dead-lane contract: the
// library's branch-free masked stores must give bit-identical output,
// including dead lanes that hold NaN payloads or -0.0. The sweeps cover
// every tail length 0..7 plus longer lengths, pointers that are 8- but not
// 32-byte aligned, null/all-alive/all-dead/random masks, the argmin
// first-minimum tie rule and the kernels' work counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "kernels/sparse_ops.hpp"
#include "util/stats.hpp"

namespace kern = ucp::kern;
using kern::Index32;

namespace {

// ---- reference loops --------------------------------------------------------

namespace ref {

void step_clamp_nonneg(double* x, const double* d, double step,
                       const char* alive, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        if (alive == nullptr || alive[i])
            x[i] = std::max(x[i] + step * d[i], 0.0);
}

void step_clamp01(double* x, const double* d, double step, const char* alive,
                  std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        if (alive == nullptr || alive[i])
            x[i] = std::clamp(x[i] - step * d[i], 0.0, 1.0);
}

void rsub_masked(double* x, const double* c, const char* alive,
                 std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        if (alive == nullptr || alive[i]) x[i] = c[i] - x[i];
}

void copy_masked(double* dst, const double* src, const char* alive,
                 std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        if (alive == nullptr || alive[i]) dst[i] = src[i];
}

void select_fill(double* x, double v_alive, double v_dead, const char* alive,
                 std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        x[i] = alive == nullptr || alive[i] ? v_alive : v_dead;
}

void span_sub_masked(double* x, const Index32* idx, std::size_t n, double v,
                     const char* alive) {
    for (std::size_t k = 0; k < n; ++k)
        if (alive == nullptr || alive[idx[k]]) x[idx[k]] -= v;
}

Index32 argmin_ratio(const double* c, const Index32* nj, const char* alive,
                     const char* sel, std::size_t n) {
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best = n;
    for (std::size_t j = 0; j < n; ++j) {
        if (alive != nullptr && !alive[j]) continue;
        if (sel != nullptr && sel[j]) continue;
        if (nj[j] == 0) continue;
        const double score = std::max(c[j], 1e-9) / static_cast<double>(nj[j]);
        if (score < best_score) {
            best_score = score;
            best = j;
        }
    }
    return static_cast<Index32>(best);
}

bool subset(const std::uint64_t* a, const std::uint64_t* b, std::size_t w) {
    for (std::size_t k = 0; k < w; ++k)
        if ((a[k] & b[k]) != a[k]) return false;
    return true;
}

}  // namespace ref

// ---- input generators -------------------------------------------------------

// Every tail residue 0..7 plus longer lengths for the main loops.
const std::vector<std::size_t> kSizes{0,  1,  2,  3,  4,  5,  6,   7,  8, 9,
                                      12, 15, 16, 17, 31, 32, 33, 63, 64, 100};

enum class MaskKind { kNull, kAllAlive, kAllDead, kRandom };
constexpr MaskKind kMaskKinds[] = {MaskKind::kNull, MaskKind::kAllAlive,
                                   MaskKind::kAllDead, MaskKind::kRandom};

std::vector<double> random_doubles(std::mt19937_64& g, std::size_t n) {
    std::uniform_real_distribution<double> d(-10.0, 10.0);
    std::vector<double> v(n);
    for (double& x : v) x = d(g);
    return v;
}

std::vector<char> make_mask(std::mt19937_64& g, std::size_t n, MaskKind kind) {
    std::vector<char> m(n, 1);
    if (kind == MaskKind::kAllDead) std::fill(m.begin(), m.end(), char{0});
    if (kind == MaskKind::kRandom)
        for (char& c : m) c = static_cast<char>(g() & 1u);
    return m;
}

const char* mask_ptr(const std::vector<char>& m, MaskKind kind) {
    return kind == MaskKind::kNull ? nullptr : m.data();
}

double nan_with_payload(std::uint64_t payload) {
    return std::bit_cast<double>(std::uint64_t{0x7ff8000000000000} |
                                 (payload & 0x0007ffffffffffffu));
}

/// Random doubles where every dead lane holds a NaN with its own payload or
/// -0.0 (alternating), so a kernel that rewrites a dead lane shows up as a
/// bit difference.
std::vector<double> doubles_with_odd_dead_lanes(std::mt19937_64& g,
                                                const std::vector<char>& alive) {
    auto v = random_doubles(g, alive.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        if (!alive[i]) v[i] = i % 2 == 0 ? nan_with_payload(i + 1) : -0.0;
    return v;
}

std::vector<Index32> sorted_distinct_indices(std::mt19937_64& g, std::size_t n,
                                             std::size_t universe) {
    std::vector<Index32> all(universe);
    for (std::size_t i = 0; i < universe; ++i) all[i] = static_cast<Index32>(i);
    std::shuffle(all.begin(), all.end(), g);
    all.resize(std::min(n, universe));
    std::sort(all.begin(), all.end());
    return all;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::uint64_t counter_value(const char* name) {
    return ucp::stats::counter(name).value();
}

// Runs each masked elementwise kernel and its reference on copies of x0 and
// checks the output bits agree.
void check_elementwise(const std::vector<double>& x0,
                       const std::vector<double>& d, const char* alive,
                       std::size_t off, std::size_t n, const char* what) {
    const double step = 0.37;
    auto a = x0, b = x0;
    ref::step_clamp_nonneg(a.data() + off, d.data() + off, step, alive, n);
    kern::step_clamp_nonneg(b.data() + off, d.data() + off, step, alive, n);
    EXPECT_TRUE(bits_equal(a, b)) << "step_clamp_nonneg " << what << " n=" << n;

    a = x0, b = x0;
    ref::step_clamp01(a.data() + off, d.data() + off, step, alive, n);
    kern::step_clamp01(b.data() + off, d.data() + off, step, alive, n);
    EXPECT_TRUE(bits_equal(a, b)) << "step_clamp01 " << what << " n=" << n;

    a = x0, b = x0;
    ref::rsub_masked(a.data() + off, d.data() + off, alive, n);
    kern::rsub_masked(b.data() + off, d.data() + off, alive, n);
    EXPECT_TRUE(bits_equal(a, b)) << "rsub_masked " << what << " n=" << n;

    a = x0, b = x0;
    ref::copy_masked(a.data() + off, d.data() + off, alive, n);
    kern::copy_masked(b.data() + off, d.data() + off, alive, n);
    EXPECT_TRUE(bits_equal(a, b)) << "copy_masked " << what << " n=" << n;

    a = x0, b = x0;
    ref::select_fill(a.data() + off, 1.0, 0.0, alive, n);
    kern::select_fill(b.data() + off, 1.0, 0.0, alive, n);
    EXPECT_TRUE(bits_equal(a, b)) << "select_fill " << what << " n=" << n;
}

}  // namespace

// ---- masked dense elementwise -----------------------------------------------

TEST(Kernels, ElementwiseAllTailsAndMasks) {
    std::mt19937_64 g(0x5eedu);
    for (const std::size_t n : kSizes) {
        for (const MaskKind mk : kMaskKinds) {
            const auto mask = make_mask(g, n, mk);
            check_elementwise(random_doubles(g, n), random_doubles(g, n),
                              mask_ptr(mask, mk), 0, n, "random");
        }
        auto x = random_doubles(g, n);
        kern::fill(x.data(), -3.25, n);
        for (const double v : x) EXPECT_EQ(v, -3.25);
    }
}

TEST(Kernels, DeadLanesKeepNanPayloadsAndNegativeZero) {
    std::mt19937_64 g(0xdeadu);
    for (const std::size_t n : kSizes) {
        for (const MaskKind mk : {MaskKind::kAllDead, MaskKind::kRandom}) {
            const auto mask = make_mask(g, n, mk);
            check_elementwise(doubles_with_odd_dead_lanes(g, mask),
                              random_doubles(g, n), mask.data(), 0, n,
                              "odd dead lanes");
        }
    }
}

TEST(Kernels, ElementwiseUnalignedPointers) {
    // One double of offset: still 8-byte aligned but not 32-byte aligned on
    // at least one of the two buffers.
    std::mt19937_64 g(0xa11u);
    for (const std::size_t n : {7u, 16u, 33u, 100u}) {
        const auto mask = make_mask(g, n, MaskKind::kRandom);
        std::vector<char> shifted(n + 1, 0);
        std::copy(mask.begin(), mask.end(), shifted.begin() + 1);
        const auto x0 = doubles_with_odd_dead_lanes(g, shifted);
        check_elementwise(x0, random_doubles(g, n + 1), mask.data(), 1, n,
                          "unaligned");
    }
}

// ---- span gather/scatter ----------------------------------------------------

TEST(Kernels, SpanGatherScatter) {
    std::mt19937_64 g(0x5a4u);
    const std::size_t universe = 200;
    for (const std::size_t n : kSizes) {
        const auto idx = sorted_distinct_indices(g, n, universe);
        const auto x0 = random_doubles(g, universe);
        const auto mask = make_mask(g, universe, MaskKind::kRandom);
        const double v = 1.625;

        auto a = x0, b = x0;
        ref::span_sub_masked(a.data(), idx.data(), idx.size(), v, nullptr);
        kern::span_sub(b.data(), idx.data(), idx.size(), v);
        EXPECT_TRUE(bits_equal(a, b)) << "span_sub n=" << n;

        a = x0, b = x0;
        for (const Index32 i : idx) a[i] += v;
        kern::span_add(b.data(), idx.data(), idx.size(), v);
        EXPECT_TRUE(bits_equal(a, b)) << "span_add n=" << n;

        for (const MaskKind mk : {MaskKind::kNull, MaskKind::kRandom}) {
            a = x0, b = x0;
            ref::span_sub_masked(a.data(), idx.data(), idx.size(), v,
                                 mask_ptr(mask, mk));
            kern::span_sub_masked(b.data(), idx.data(), idx.size(), v,
                                  mask_ptr(mask, mk));
            EXPECT_TRUE(bits_equal(a, b)) << "span_sub_masked n=" << n;
        }
    }
}

// ---- greedy candidate scan --------------------------------------------------

TEST(Kernels, ArgminRatioTieRule) {
    // Equal scores at several indices: the smallest index wins.
    const std::size_t n = 13;
    std::vector<double> c(n, 8.0);
    std::vector<Index32> nj(n, 4);  // every score = 2.0
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, nullptr, n), 0u);
    c[5] = c[9] = 4.0;
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, nullptr, n), 5u);
    std::fill(c.begin(), c.end(), 8.0);
    c[2] = c[12] = 4.0;
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, nullptr, n), 2u);
    // Costs below the 1e-9 floor tie with the floor itself.
    std::fill(c.begin(), c.end(), 8.0);
    c[7] = 0.0;
    c[3] = 1e-12;
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, nullptr, n), 3u);
    // Invalid lanes: nj == 0, dead, selected. All-invalid returns n.
    const std::vector<char> dead(n, 0);
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), dead.data(), nullptr, n),
              static_cast<Index32>(n));
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, dead.data(), n),
              3u);
    const std::vector<char> all(n, 1);
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, all.data(), n),
              static_cast<Index32>(n));
    const std::vector<Index32> nj0(n, 0);
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj0.data(), nullptr, nullptr, n),
              static_cast<Index32>(n));
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, nullptr, 0), 0u);
}

TEST(Kernels, ArgminRatioMatchesReference) {
    std::mt19937_64 g(0xa4au);
    std::uniform_int_distribution<Index32> nj_dist(0, 6);
    std::uniform_int_distribution<int> cost_dist(0, 4);
    for (const std::size_t n : kSizes) {
        for (int rep = 0; rep < 8; ++rep) {
            // Small integer costs make tied scores common.
            std::vector<double> c(n);
            for (double& x : c) x = cost_dist(g);
            std::vector<Index32> nj(n);
            for (Index32& v : nj) v = nj_dist(g);
            const auto alive = make_mask(g, n, MaskKind::kRandom);
            const auto sel = make_mask(g, n, MaskKind::kRandom);
            for (const MaskKind ak : {MaskKind::kNull, MaskKind::kRandom})
                for (const MaskKind sk : {MaskKind::kNull, MaskKind::kRandom})
                    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(),
                                                 mask_ptr(alive, ak),
                                                 mask_ptr(sel, sk), n),
                              ref::argmin_ratio(c.data(), nj.data(),
                                                mask_ptr(alive, ak),
                                                mask_ptr(sel, sk), n))
                        << "argmin n=" << n << " rep=" << rep;
        }
    }
}

TEST(Kernels, ArgminCountsOneScanPerCall) {
    const std::vector<double> c{3.0, 1.0, 2.0};
    const std::vector<Index32> nj{1, 1, 1};
    const auto before = counter_value("kernels.argmin_scans");
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, nullptr, 3), 1u);
    EXPECT_EQ(kern::argmin_ratio(c.data(), nj.data(), nullptr, nullptr, 0), 0u);
    EXPECT_EQ(counter_value("kernels.argmin_scans") - before, 2u);
}

// ---- bitset kernels ---------------------------------------------------------

TEST(Kernels, BitsetSubsetKernels) {
    std::mt19937_64 g(0xb175u);
    for (const std::size_t wpr : {1u, 2u, 3u, 5u, 8u}) {
        const std::size_t rows = 24;
        std::vector<std::uint64_t> words(rows * wpr);
        for (auto& w : words) w = g();
        // Guaranteed-subset pairs: row r+1 ⊇ row r for even r.
        for (std::size_t r = 0; r + 1 < rows; r += 2)
            for (std::size_t k = 0; k < wpr; ++k)
                words[(r + 1) * wpr + k] |= words[r * wpr + k];
        for (const std::size_t n : kSizes) {
            const auto cand = sorted_distinct_indices(g, n, rows);
            const std::uint64_t* probe = words.data();  // row 0
            std::vector<char> want(cand.size() + 1, 42), got(cand.size() + 1, 42);
            std::size_t first = cand.size();
            for (std::size_t t = 0; t < cand.size(); ++t) {
                want[t] = ref::subset(probe, words.data() + cand[t] * wpr, wpr);
                if (want[t] && first == cand.size()) first = t;
            }
            kern::subset_batch(words.data(), wpr, probe, cand.data(),
                               cand.size(), got.data());
            EXPECT_EQ(want, got) << "subset_batch wpr=" << wpr << " n=" << n;
            EXPECT_EQ(kern::subset_first(words.data(), wpr, probe, cand.data(),
                                         cand.size()),
                      first)
                << "subset_first wpr=" << wpr << " n=" << n;
        }
        // Reflexivity: every row is a subset of itself.
        const std::vector<Index32> self{3};
        char hit = 0;
        kern::subset_batch(words.data(), wpr, words.data() + 3 * wpr,
                           self.data(), 1, &hit);
        EXPECT_EQ(hit, 1);
    }
}

TEST(Kernels, SubsetCountersCountProbesRun) {
    // Rows: 0 = {0}, 1 = {1}, 2 = {0,1}, 3 = {0}. Probe {0}.
    const std::vector<std::uint64_t> words{0b01, 0b10, 0b11, 0b01};
    const std::uint64_t probe = 0b01;
    const std::vector<Index32> cand{1, 1, 2, 3, 0};
    std::vector<char> out(cand.size());

    auto before = counter_value("kernels.subset_tests");
    kern::subset_batch(words.data(), 1, &probe, cand.data(), cand.size(),
                       out.data());
    EXPECT_EQ(counter_value("kernels.subset_tests") - before, cand.size());

    // subset_first stops at the first hit (t = 2) after 3 probes.
    before = counter_value("kernels.subset_tests");
    EXPECT_EQ(kern::subset_first(words.data(), 1, &probe, cand.data(),
                                 cand.size()),
              2u);
    EXPECT_EQ(counter_value("kernels.subset_tests") - before, 3u);

    // No hit: every probe runs and the result is n.
    before = counter_value("kernels.subset_tests");
    EXPECT_EQ(kern::subset_first(words.data(), 1, &probe, cand.data(), 2), 2u);
    EXPECT_EQ(counter_value("kernels.subset_tests") - before, 2u);

    before = counter_value("kernels.subset_tests");
    EXPECT_EQ(kern::subset_first(words.data(), 1, &probe, cand.data(), 0), 0u);
    EXPECT_EQ(counter_value("kernels.subset_tests") - before, 0u);
}

TEST(Kernels, PopcountAndBuildBits) {
    std::mt19937_64 g(0x9090u);
    for (const std::size_t n : kSizes) {
        std::vector<std::uint64_t> w(n);
        for (auto& x : w) x = g();
        std::size_t want = 0;
        for (const auto x : w) want += static_cast<std::size_t>(std::popcount(x));
        EXPECT_EQ(kern::popcount_words(w.data(), n), want) << "popcount n=" << n;

        const std::size_t universe = 190;
        const auto idx = sorted_distinct_indices(g, n, universe);
        const auto keep = make_mask(g, universe, MaskKind::kRandom);
        const std::size_t nwords = (universe + 63) / 64;
        for (const MaskKind mk : {MaskKind::kNull, MaskKind::kRandom}) {
            const char* k = mask_ptr(keep, mk);
            std::vector<std::uint64_t> ws(nwords, 0), wv(nwords, 0);
            for (const Index32 i : idx)
                if (k == nullptr || k[i]) ws[i >> 6] |= std::uint64_t{1} << (i & 63u);
            kern::build_bits_filtered(wv.data(), idx.data(), idx.size(), k);
            EXPECT_EQ(ws, wv) << "build_bits_filtered n=" << n;
        }
    }
}

// ---- integer sweeps and reductions ------------------------------------------

TEST(Kernels, SumAndFilterRemap) {
    std::mt19937_64 g(0x5e1u);
    std::uniform_int_distribution<Index32> val(0, 1000);
    for (const std::size_t n : kSizes) {
        std::vector<Index32> v(n);
        for (Index32& x : v) x = val(g);
        for (const MaskKind mk : kMaskKinds) {
            const auto mask = make_mask(g, n, mk);
            const char* alive = mask_ptr(mask, mk);
            std::uint64_t want = 0;
            for (std::size_t i = 0; i < n; ++i)
                if (alive == nullptr || alive[i]) want += v[i];
            EXPECT_EQ(kern::sum_u32_masked(v.data(), alive, n), want)
                << "sum_u32_masked n=" << n;
        }

        const std::size_t universe = 150;
        const auto idx = sorted_distinct_indices(g, n, universe);
        const auto alive = make_mask(g, universe, MaskKind::kRandom);
        std::vector<Index32> remap(universe);
        for (std::size_t i = 0; i < universe; ++i)
            remap[i] = static_cast<Index32>(universe - 1 - i);
        std::vector<Index32> want(idx.size() + 1, 7777), got(idx.size() + 1, 7777);
        std::size_t written = 0;
        for (const Index32 i : idx)
            if (alive[i]) want[written++] = remap[i];
        EXPECT_EQ(kern::filter_remap(got.data(), idx.data(), idx.size(),
                                     alive.data(), remap.data()),
                  written)
            << "filter_remap count n=" << n;
        EXPECT_EQ(want, got) << "filter_remap content n=" << n;
        const std::vector<char> dead(universe, 0);
        EXPECT_EQ(kern::filter_remap(got.data(), idx.data(), idx.size(),
                                     dead.data(), remap.data()),
                  0u);
    }
}

TEST(Kernels, SequentialReductions) {
    std::mt19937_64 g(0xd07u);
    for (const std::size_t n : kSizes) {
        const auto x = random_doubles(g, n);
        const auto mask = make_mask(g, n, MaskKind::kRandom);
        double want = 0.0, want_masked = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            want += x[i] * x[i];
            if (mask[i]) want_masked += x[i] * x[i];
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(kern::dot_self(x.data(), n)),
                  std::bit_cast<std::uint64_t>(want));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      kern::dot_self_masked(x.data(), mask.data(), n)),
                  std::bit_cast<std::uint64_t>(want_masked));
        EXPECT_EQ(kern::dot_self_masked(x.data(), nullptr, n),
                  kern::dot_self(x.data(), n));
    }
}
