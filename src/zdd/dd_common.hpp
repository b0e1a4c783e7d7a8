// Shared high-performance infrastructure for the decision-diagram managers.
//
// ZddManager and BddManager used to carry their own copy-pasted triple hash,
// open-addressing unique table and fixed 64K direct-mapped computed cache.
// This header is the single home for that machinery:
//
//   * dd_triple_hash / dd_cache_key — the SplitMix-style mixers;
//   * UniqueTable<Node>             — the hash-consing table (ids only; node
//     fields stay in the manager's arena so probes touch one contiguous
//     array), with growth tuned for construction bursts (4x while small);
//   * ComputedCache<Result, Ways>   — a growable set-associative memo table
//     (two ways by default) with branch-free probes and adaptive doubling.
//     Templating on the result type lets the same cache memoise single
//     nodes (NodeId/BddId) and fused result pairs (the cofactor-pair
//     operator).
//
// The computed cache is lossy by design: dropping an entry only costs
// recomputation, never correctness, so eviction and growth policies are pure
// performance decisions (DESIGN.md §8 records the measured alternatives).
#pragma once

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "util/budget.hpp"

namespace ucp::zdd {

/// Compile-less toggle for the chain-reduced ZDD node encoding: the env var
/// `UCP_ZDD_CHAIN` (on/off, 1/0, true/false, any case) sets the
/// DdOptions::chain_nodes default for every manager in the process (benches
/// included). Read once; any other value warns once on stderr and keeps the
/// default (on).
inline bool dd_chain_nodes_default() noexcept {
    static const bool enabled = [] {
        const char* env = std::getenv("UCP_ZDD_CHAIN");
        if (env == nullptr) return true;
        const auto is = [env](const char* word) {
            std::size_t i = 0;
            for (; env[i] != '\0' && word[i] != '\0'; ++i)
                if (std::tolower(static_cast<unsigned char>(env[i])) != word[i])
                    return false;
            return env[i] == word[i];
        };
        if (is("on") || is("1") || is("true")) return true;
        if (is("off") || is("0") || is("false")) return false;
        std::fprintf(stderr,
                     "warning: ignoring UCP_ZDD_CHAIN=%s (want on|off|1|0|"
                     "true|false); chain nodes stay on\n",
                     env);
        return true;
    }();
    return enabled;
}

/// Construction-time tuning knobs shared by ZddManager and BddManager.
/// Defaults match the measured sweet spot on the micro-ZDD suites; the
/// two_level/table-builder pipeline plumbs them through TableBuildOptions and
/// the CLI (`--zdd-gc-threshold`, `--zdd-cache-entries` — see README).
struct DdOptions {
    /// Initial computed-cache capacity in entries (rounded up to a power of
    /// two). The cache doubles itself while operations are missing *and* the
    /// table is loaded, so a small initial size only costs a few early
    /// resizes. A manager is built per prime or row call, mostly on small
    /// functions, and a large initial table is paid in page faults on every
    /// construction: a BDD + ZDD manager pair costs about 1 ms at 2^16
    /// entries and about 8 µs at 2^12 (DESIGN.md §8).
    std::size_t cache_entries = std::size_t{1} << 12;
    /// Ceiling for adaptive doubling (entries).
    std::size_t max_cache_entries = std::size_t{1} << 22;
    /// ZddManager only: run mark-and-sweep GC between top-level operations
    /// once live nodes exceed this. The threshold self-doubles when a
    /// collection reclaims little (anti-thrash), exactly as before.
    std::size_t gc_threshold = std::size_t{1} << 18;
    /// Optional resource governor (util/budget.hpp). When set, both managers
    /// charge every arena growth against its node budget and throw a
    /// ResourceError when it (or the deadline / cancel token) trips; the
    /// implicit covering phase catches kNodeBudget and falls back to the
    /// explicit path. nullptr = ungoverned (the default).
    Budget* governor = nullptr;
    /// ZddManager only: chain-reduced node encoding (Bryant, arXiv:1710.06500,
    /// zero-chain variant — DESIGN.md §12). A node stores a level interval
    /// `t:b` instead of a single level, compressing maximal runs of
    /// "must-contain" levels into one arena record. Semantics-neutral: every
    /// operator yields the same family either way; `--zdd-chain=off` (CLI) or
    /// `UCP_ZDD_CHAIN=off` (env, flips this default) are the escape hatches
    /// for plain-vs-chain differential runs.
    bool chain_nodes = dd_chain_nodes_default();
};

/// Mixes a (var, lo, hi) triple into a well-distributed 64-bit hash
/// (SplitMix64 finalizer). Shared by both unique tables.
inline std::uint64_t dd_triple_hash(std::uint32_t v, std::uint32_t lo,
                                    std::uint32_t hi) noexcept {
    std::uint64_t h = (static_cast<std::uint64_t>(v) << 40) ^
                      (static_cast<std::uint64_t>(lo) << 20) ^ hi;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return h;
}

/// Mixes an (op, a, b) operation key for the computed cache.
inline std::uint64_t dd_cache_key(std::uint8_t op, std::uint32_t a,
                                  std::uint32_t b) noexcept {
    std::uint64_t h = (static_cast<std::uint64_t>(op) << 58) ^
                      (static_cast<std::uint64_t>(a) << 29) ^ b;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

/// The least power of two ≥ n (1 for n = 0), saturating at the top bit: a
/// larger n has no power of two to round to.
inline std::size_t dd_round_pow2(std::size_t n) noexcept {
    constexpr std::size_t kTop = std::size_t{1}
                                 << (std::numeric_limits<std::size_t>::digits - 1);
    return n > kTop ? kTop : std::bit_ceil(n);
}

/// Index of the lowest set bit (n must be non-zero).
inline unsigned count_trailing_zeros(unsigned n) noexcept {
    return static_cast<unsigned>(std::countr_zero(n));
}

/// Open-addressing hash-consing table. Stores node *ids* only (0 = empty
/// slot); the (var, lo, hi) fields are read from the manager's arena, which
/// the caller passes to every probing call — so the table itself is one flat
/// uint32 array and a probe touches at most two cache lines plus the arena.
template <typename Node>
class UniqueTable {
public:
    explicit UniqueTable(std::size_t initial_capacity) {
        slots_.assign(dd_round_pow2(initial_capacity), 0);
        mask_ = slots_.size() - 1;
    }

    /// Probes for (v, lo, hi). Returns the existing id, or 0 with `slot` set
    /// to the insertion point for a subsequent insert().
    std::uint32_t find(const std::vector<Node>& nodes, std::uint32_t v,
                       std::uint32_t lo, std::uint32_t hi,
                       std::size_t& slot) const noexcept {
        std::size_t idx = dd_triple_hash(v, lo, hi) & mask_;
        while (true) {
            const std::uint32_t id = slots_[idx];
            if (id == 0) {
                slot = idx;
                return 0;
            }
            const Node& n = nodes[id];
            if (n.var == v && n.lo == lo && n.hi == hi) return id;
            idx = (idx + 1) & mask_;
        }
    }

    /// Inserts a fresh id at `slot` (from a find() miss) and grows the table
    /// when it passes 3/4 load. Growth invalidates outstanding slots, so
    /// insert() must directly follow its find().
    void insert(const std::vector<Node>& nodes, std::size_t slot,
                std::uint32_t id) {
        slots_[slot] = id;
        ++entries_;
        if (entries_ * 4 > slots_.size() * 3) {
            // Construction bursts dominate DD workloads: quadruple while the
            // table is small so a cold build does O(1) rehashes, then settle
            // into doubling.
            const std::size_t factor = slots_.size() < (std::size_t{1} << 16) ? 4 : 2;
            grow(nodes, slots_.size() * factor);
        }
    }

    /// Re-inserts an id known to be absent (rebuild after GC).
    void reinsert(const std::vector<Node>& nodes, std::uint32_t id) {
        const Node& n = nodes[id];
        std::size_t idx = dd_triple_hash(n.var, n.lo, n.hi) & mask_;
        while (slots_[idx] != 0) idx = (idx + 1) & mask_;
        slots_[idx] = id;
        ++entries_;
    }

    void clear() noexcept {
        std::fill(slots_.begin(), slots_.end(), 0);
        entries_ = 0;
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
    [[nodiscard]] std::size_t entries() const noexcept { return entries_; }

    /// Reserved footprint in bytes (memory-budget accounting). Growth is
    /// never refused — refusing would leave a full open-addressing table
    /// probing forever — so holders sync the delta after insert() instead.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return slots_.capacity() * sizeof(std::uint32_t);
    }

private:
    void grow(const std::vector<Node>& nodes, std::size_t new_capacity) {
        std::vector<std::uint32_t> old = std::move(slots_);
        slots_.assign(new_capacity, 0);
        mask_ = new_capacity - 1;
        for (const std::uint32_t id : old) {
            if (id == 0) continue;
            const Node& n = nodes[id];
            std::size_t idx = dd_triple_hash(n.var, n.lo, n.hi) & mask_;
            while (slots_[idx] != 0) idx = (idx + 1) & mask_;
            slots_[idx] = id;
        }
    }

    std::vector<std::uint32_t> slots_;
    std::size_t mask_ = 0;
    std::size_t entries_ = 0;
};

/// Growable set-associative computed cache (two ways per set by default).
///
/// Layout: one aligned Set per index holding the keys contiguously followed
/// by the results, so a probe touches a single cache line (a 2-way set is
/// 32 bytes for NodeId results, one full line for fused result pairs).
/// Replacement is pseudo-random: the victim way comes from the key's top
/// bits, which are uncorrelated with the set index (low bits) after the
/// 64-bit mix, and the store stays a blind write with no dependent load.
/// Both higher associativity (4-way) and a clock/second-chance policy with
/// per-set ref bits were implemented and benchmarked first: 4-way+clock
/// raised the hit rate a few points, but the meta-byte read-modify-write on
/// the store path and the wider key scan cost more cycles than the extra
/// hits saved on every end-to-end suite measured, so the cheap stateless
/// policy won (DESIGN.md §8 has the numbers).
///
/// Adaptive growth: once per `capacity/2` stores the cache checks occupancy
/// and the window hit rate; a loaded cache (≥ 3/4 full) whose window hit
/// rate sits in the conflict band — real reuse (≥ 0.05) but still missing a
/// lot (< 0.9) — doubles, up to max_entries. A near-zero hit rate means the
/// workload has no reuse to protect, so growing would only add cold misses
/// and re-home cost. Growth re-homes surviving entries by key; collisions
/// beyond associativity drop entries, which is sound for a lossy memo table.
template <typename Result, std::size_t Ways = 2>
class ComputedCache {
    static_assert(Ways >= 2 && (Ways & (Ways - 1)) == 0,
                  "associativity must be a power of two");

public:
    static constexpr std::size_t kWays = Ways;
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

    ComputedCache(std::size_t entries, std::size_t max_entries)
        : max_entries_(dd_round_pow2(max_entries)) {
        const std::size_t cap = dd_round_pow2(
            std::clamp(entries, kWays, std::max(max_entries_, kWays)));
        sets_.assign(cap / kWays, Set{});
        set_mask_ = sets_.size() - 1;
        check_interval_ = capacity() / 2;
    }

    bool lookup(std::uint64_t key, Result& out) noexcept {
        Set& s = sets_[key & set_mask_];
        // Branchless way match: the per-way key compares fold into one mask
        // so the scan costs a single hit/miss branch instead of one
        // data-dependent branch per way (the hot path in memo-heavy
        // workloads).
        unsigned match = 0;
        for (std::size_t w = 0; w < kWays; ++w)
            match |= static_cast<unsigned>(s.key[w] == key) << w;
        if (match != 0) {
            out = s.result[count_trailing_zeros(match)];
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /// Inserts `key`. Callers only store after a failed lookup of the same
    /// key (the memoisation pattern), so the key is known absent and no
    /// same-key scan is needed. The victim way comes from the key's top
    /// bits — effectively random, independent of the set index, and free:
    /// the store is a blind write with no dependent load, which matters
    /// because nearly every cache miss ends in a store.
    void store(std::uint64_t key, const Result& result) {
        Set& s = sets_[key & set_mask_];
        const unsigned way =
            static_cast<unsigned>(key >> (64 - kWays)) & (kWays - 1);
        size_ += static_cast<std::size_t>(s.key[way] == kNoKey);
        s.key[way] = key;
        s.result[way] = result;
        if (++stores_since_check_ >= check_interval_) maybe_grow();
    }

    /// Drops every entry but keeps the current capacity (used after GC, when
    /// cached node ids may be dead).
    void clear() noexcept {
        std::fill(sets_.begin(), sets_.end(), Set{});
        size_ = 0;
        stores_since_check_ = 0;
        window_hits_ = hits_;
        window_lookups_ = hits_ + misses_;
    }

    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
    [[nodiscard]] std::uint64_t resizes() const noexcept { return resizes_; }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return sets_.size() * kWays;
    }

    /// Reserved footprint in bytes (memory-budget accounting).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return sets_.capacity() * sizeof(Set);
    }

    /// Memory-pressure response, stage 1: freezes adaptive growth at the
    /// current capacity (maybe_grow becomes a no-op).
    void clamp_growth() noexcept { max_entries_ = capacity(); }

    /// Memory-pressure response, stage 1: halves the capacity, re-homing the
    /// entries that still fit and dropping the rest — sound for a lossy memo
    /// table, it only costs recomputation. Returns the bytes freed; 0 once
    /// the cache is at its minimum size (one set).
    std::size_t shed() {
        if (sets_.size() <= 1) return 0;
        const std::size_t before = memory_bytes();
        std::vector<Set> old = std::move(sets_);
        sets_.assign(old.size() / 2, Set{});
        set_mask_ = sets_.size() - 1;
        check_interval_ = capacity() / 2;
        size_ = 0;
        stores_since_check_ = 0;
        window_hits_ = hits_;
        window_lookups_ = hits_ + misses_;
        for (const Set& os : old) {
            for (std::size_t w = 0; w < kWays; ++w) {
                if (os.key[w] == kNoKey) continue;
                Set& ns = sets_[os.key[w] & set_mask_];
                for (std::size_t nw = 0; nw < kWays; ++nw) {
                    if (ns.key[nw] == kNoKey) {
                        ns.key[nw] = os.key[w];
                        ns.result[nw] = os.result[w];
                        ++size_;
                        break;
                    }
                }
            }
        }
        return before - memory_bytes();
    }

private:
    struct alignas(kWays * 16) Set {
        std::uint64_t key[kWays];
        Result result[kWays];
        Set() {
            for (auto& k : key) k = kNoKey;
            for (auto& r : result) r = Result{};
        }
    };
    static_assert(sizeof(Result) <= 8,
                  "Set sizing assumes results no wider than the keys");

    void maybe_grow() {
        const std::uint64_t lookups = hits_ + misses_ - window_lookups_;
        const std::uint64_t hit = hits_ - window_hits_;
        const bool loaded = size_ * 4 >= sets_.size() * kWays * 3;
        // Conflict band: enough reuse that dropped entries cost recomputation,
        // yet most lookups still miss.
        const bool conflicted =
            lookups > 0 && hit * 10 < lookups * 9 && hit * 20 >= lookups;
        stores_since_check_ = 0;
        window_hits_ = hits_;
        window_lookups_ = hits_ + misses_;
        if (!loaded || !conflicted || capacity() >= max_entries_) return;

        std::vector<Set> old = std::move(sets_);
        sets_.assign(old.size() * 2, Set{});
        set_mask_ = sets_.size() - 1;
        check_interval_ = capacity() / 2;
        size_ = 0;
        ++resizes_;
        for (const Set& os : old) {
            for (std::size_t w = 0; w < kWays; ++w) {
                if (os.key[w] == kNoKey) continue;
                Set& ns = sets_[os.key[w] & set_mask_];
                for (std::size_t nw = 0; nw < kWays; ++nw) {
                    if (ns.key[nw] == kNoKey) {
                        ns.key[nw] = os.key[w];
                        ns.result[nw] = os.result[w];
                        ++size_;
                        break;
                    }
                }
            }
        }
    }

    std::vector<Set> sets_;
    std::size_t set_mask_ = 0;
    std::size_t size_ = 0;  // ever-occupied ways (never decremented, reset on clear)
    std::size_t max_entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t resizes_ = 0;
    std::size_t stores_since_check_ = 0;
    std::size_t check_interval_ = 0;  // capacity()/2, cached off the hot path
    std::uint64_t window_hits_ = 0;
    std::uint64_t window_lookups_ = 0;
};

}  // namespace ucp::zdd
