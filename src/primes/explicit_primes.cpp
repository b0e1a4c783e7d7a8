#include "primes/explicit_primes.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "util/budget.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace ucp::primes {

using pla::Cover;
using pla::Cube;
using pla::CubeSpace;

namespace {

/// Folds one call's ConsensusStats into the stats registry on scope exit,
/// also when the closure is abandoned by a throw.
struct StatsFlush {
    const ConsensusStats& st;
    ~StatsFlush() {
        stats::counter("primes.consensus_attempts").add(st.consensus_attempts);
        stats::counter("primes.cubes_added").add(st.cubes_added);
        stats::counter("primes.cubes_absorbed").add(st.cubes_absorbed);
    }
};

}  // namespace

pla::Cover primes_by_consensus(const pla::Cover& care, std::size_t max_primes,
                               ConsensusStats* stats, Budget* governor) {
    TRACE_SPAN("primes.consensus");
    const CubeSpace& s = care.space();
    ConsensusStats local;
    ConsensusStats& st = stats != nullptr ? *stats : local;
    const StatsFlush flush{st};

    // Working set: cube i is the `stride` words at arena[i * stride], in the
    // Cube word layout [allow0 | allow1 | out]. Deletion is lazy (`dead`);
    // `live` lists the surviving indices in ascending order and is the only
    // thing the absorption scans touch.
    const std::size_t stride = s.words();
    const std::uint32_t iw = s.in_words();
    const bool multi_output = s.num_outputs > 0;
    // The valid input bits of each word: the allow0 words of the universe.
    const std::vector<std::uint64_t> in_mask = Cube::full_inputs(s).words();

    std::vector<std::uint64_t> arena;
    std::vector<std::uint8_t> dead;
    std::vector<std::uint32_t> live;
    std::vector<std::uint64_t> buf(stride);  // the candidate being built
    arena.reserve(care.size() * 2 * stride);
    const auto cube = [&](std::size_t i) { return arena.data() + i * stride; };

    const auto valid = [&](const std::uint64_t* c) {
        for (std::uint32_t w = 0; w < iw; ++w)
            if ((c[w] | c[iw + w]) != in_mask[w]) return false;
        if (!multi_output) return true;
        for (std::size_t w = 2 * iw; w < stride; ++w)
            if (c[w] != 0) return true;
        return false;
    };

    const auto contains = [&](const std::uint64_t* e, const std::uint64_t* c) {
        std::uint64_t missing = 0;
        for (std::size_t w = 0; w < stride; ++w) missing |= c[w] & ~e[w];
        return missing == 0;
    };

    // Adds `c` unless a live cube contains it, killing the live cubes it
    // contains. Most candidates are absorbed, often by the cube that
    // absorbed the previous one, so that cube (`absorber`) is tried first.
    // It may have died since, but every dead cube lies inside a live one,
    // so a hit on it still means `c` is absorbed.
    std::uint32_t absorber = 0;
    const auto insert = [&](const std::uint64_t* c) {
        if (!valid(c)) return;
        if (absorber < dead.size() && contains(cube(absorber), c)) return;
        for (const std::uint32_t i : live) {
            if (contains(cube(i), c)) {
                absorber = i;
                return;
            }
        }
        std::size_t kills = 0;
        for (const std::uint32_t i : live) {
            if (contains(c, cube(i))) {
                dead[i] = 1;
                ++kills;
            }
        }
        if (kills != 0) {
            st.cubes_absorbed += kills;
            std::erase_if(live, [&](std::uint32_t i) { return dead[i] != 0; });
        }
        live.push_back(static_cast<std::uint32_t>(dead.size()));
        arena.insert(arena.end(), c, c + stride);
        dead.push_back(0);
        ++st.cubes_added;
        if (st.cubes_added > max_primes)
            throw ResourceError(Status::kNodeBudget,
                                "primes_by_consensus: prime limit exceeded (" +
                                    std::to_string(max_primes) + ")");
    };

    for (const auto& c : care) insert(c.words().data());

    // Iterate to closure. `frontier_start` avoids recomputing pairs of old
    // cubes: a pass only pairs (old ∪ new) × new.
    std::size_t frontier_start = 0;
    while (frontier_start < dead.size()) {
        const std::size_t frontier_end = dead.size();
        ++st.passes;
        for (std::size_t j = frontier_start; j < frontier_end; ++j) {
            if (governor != nullptr)
                throw_if_error(governor->check(), "consensus closure");
            for (std::size_t i = 0; i < j && dead[j] == 0; ++i) {
                if (dead[i] != 0) continue;
                ++st.consensus_attempts;
                const std::uint64_t* a = cube(i);
                const std::uint64_t* b = cube(j);
                // Distance (0, 1 or more) and the conflicting input bit, in
                // one pass over the input words.
                std::uint32_t dist = 0, conflict_word = 0;
                std::uint64_t conflict = 0;
                for (std::uint32_t w = 0; w < iw && dist < 2; ++w) {
                    const std::uint64_t bad =
                        in_mask[w] & ~((a[w] & b[w]) | (a[iw + w] & b[iw + w]));
                    if (bad == 0) continue;
                    dist += static_cast<std::uint32_t>(std::popcount(bad));
                    conflict_word = w;
                    conflict = bad;
                }
                if (dist >= 2) continue;
                bool outputs_meet = !multi_output;
                for (std::size_t w = 2 * iw; w < stride && !outputs_meet; ++w)
                    outputs_meet = (a[w] & b[w]) != 0;
                // Distance 1 on an input (the outputs must meet): the
                // consensus is the intersection with the union on that
                // input. Distance 0 on the inputs (multi-output only): the
                // input intersection with the output union. That is the
                // consensus when the outputs are disjoint, and otherwise the
                // output-part consensus that merges overlapping but
                // incomparable output sets (needed for completeness with
                // ≥ 3 outputs).
                if (dist == 1 ? !outputs_meet : !multi_output) continue;
                for (std::size_t w = 0; w < 2 * iw; ++w) buf[w] = a[w] & b[w];
                if (dist == 1) {
                    const std::uint32_t w0 = conflict_word, w1 = iw + conflict_word;
                    buf[w0] |= (a[w0] | b[w0]) & conflict;
                    buf[w1] |= (a[w1] | b[w1]) & conflict;
                    for (std::size_t w = 2 * iw; w < stride; ++w) buf[w] = a[w] & b[w];
                } else {
                    for (std::size_t w = 2 * iw; w < stride; ++w) buf[w] = a[w] | b[w];
                }
                insert(buf.data());
            }
        }
        frontier_start = frontier_end;
    }

    // The surviving set is an antichain under containment: the primes. Emit
    // them in the canonical order: at the first input where two cubes
    // differ, 1 < 0 < − (rank = allow0 + (allow0 & allow1)). Distinct primes
    // never share an input part, so the outputs never decide.
    const auto canonical_less = [&](std::uint32_t x, std::uint32_t y) {
        const std::uint64_t* a = cube(x);
        const std::uint64_t* b = cube(y);
        for (std::uint32_t w = 0; w < iw; ++w) {
            const std::uint64_t d = (a[w] ^ b[w]) | (a[iw + w] ^ b[iw + w]);
            if (d == 0) continue;
            const std::uint64_t bit = d & (~d + 1);
            const auto rank = [&](const std::uint64_t* c) {
                return ((c[w] & bit) != 0) + ((c[w] & c[iw + w] & bit) != 0);
            };
            return rank(a) < rank(b);
        }
        return false;
    };
    std::sort(live.begin(), live.end(), canonical_less);

    Cover out(s);
    out.reserve(live.size());
    for (const std::uint32_t i : live) out.add(Cube::from_words(s, cube(i)));
    return out;
}

pla::Cover primes_by_tabular(const pla::Cover& care, std::size_t max_minterms) {
    const CubeSpace& s = care.space();
    UCP_REQUIRE(s.num_outputs == 0, "tabular method requires input-only cover");
    UCP_REQUIRE(s.num_inputs <= 20, "tabular method limited to 20 inputs");
    const std::uint32_t n = s.num_inputs;

    // QM cube: (value, dash) — `dash` bits are free, `value` gives the bound
    // bits (zero on dash positions). Packed into one 64-bit key.
    struct QmCube {
        std::uint32_t value;
        std::uint32_t dash;
    };
    const auto key = [](std::uint32_t value, std::uint32_t dash) {
        return (static_cast<std::uint64_t>(dash) << 32) | value;
    };

    // Level 0: the minterms.
    std::vector<QmCube> level;
    const std::uint64_t limit = 1ULL << n;
    UCP_REQUIRE(limit <= max_minterms, "minterm expansion exceeds the limit");
    for (std::uint64_t a = 0; a < limit; ++a)
        if (care.eval({a})) level.push_back({static_cast<std::uint32_t>(a), 0});

    pla::Cover primes(s);
    std::unordered_set<std::uint64_t> emitted;

    const auto emit = [&](const QmCube& c) {
        if (!emitted.insert(key(c.value, c.dash)).second) return;
        Cube cube = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < n; ++i) {
            if ((c.dash >> i) & 1) continue;
            cube.set_in(s, i,
                        ((c.value >> i) & 1) != 0 ? pla::Lit::kOne
                                                  : pla::Lit::kZero);
        }
        primes.add(std::move(cube));
    };

    while (!level.empty()) {
        // Group cube indices by popcount of the value (dash bits are zero).
        std::unordered_map<std::uint64_t, std::size_t> index_of;
        index_of.reserve(level.size() * 2);
        for (std::size_t i = 0; i < level.size(); ++i)
            index_of.emplace(key(level[i].value, level[i].dash), i);

        std::vector<bool> merged(level.size(), false);
        std::unordered_set<std::uint64_t> next_keys;
        std::vector<QmCube> next;
        for (std::size_t i = 0; i < level.size(); ++i) {
            const QmCube& c = level[i];
            for (std::uint32_t b = 0; b < n; ++b) {
                if ((c.dash >> b) & 1) continue;
                if ((c.value >> b) & 1) continue;  // pair up from the 0 side
                const auto partner = index_of.find(
                    key(c.value | (1u << b), c.dash));
                if (partner == index_of.end()) continue;
                merged[i] = true;
                merged[partner->second] = true;
                const QmCube m{c.value, c.dash | (1u << b)};
                if (next_keys.insert(key(m.value, m.dash)).second)
                    next.push_back(m);
            }
        }
        for (std::size_t i = 0; i < level.size(); ++i)
            if (!merged[i]) emit(level[i]);
        level = std::move(next);
    }
    return primes;
}

}  // namespace ucp::primes
