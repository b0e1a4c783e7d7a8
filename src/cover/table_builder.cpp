#include "cover/table_builder.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "primes/explicit_primes.hpp"
#include "primes/implicit_primes.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "zdd/zdd_cubes.hpp"

namespace ucp::cover {

using cov::Index;
using pla::Cover;
using pla::Cube;
using pla::CubeSpace;
using zdd::NodeId;
using zdd::Var;
using zdd::Zdd;
using zdd::ZddManager;

namespace {

std::vector<zdd::LitSpec> cube_spec(const CubeSpace& s, const Cube& c) {
    std::vector<zdd::LitSpec> spec(s.num_inputs, zdd::LitSpec::kDontCare);
    for (std::uint32_t i = 0; i < s.num_inputs; ++i) {
        switch (c.in(s, i)) {
            case pla::Lit::kZero: spec[i] = zdd::LitSpec::kZero; break;
            case pla::Lit::kOne: spec[i] = zdd::LitSpec::kOne; break;
            case pla::Lit::kDontCare: break;
            case pla::Lit::kEmpty:
                UCP_ASSERT(false);  // covers validated on construction
        }
    }
    return spec;
}

/// Multi-output primes of the care function, per the chosen method, in the
/// canonical prime order (explicit_primes.hpp). Under kAuto a node-budget
/// trip in the implicit generator degrades to the consensus path (the prime
/// set of a function is canonical and both paths sort it the same way, so
/// the columns are the same either way). A prime count above max_primes is
/// not a trip: the closure would reach the same count, so it fails at once.
Cover generate_primes(const pla::Pla& pla, const TableBuildOptions& opt,
                      bool& used_implicit) {
    TRACE_SPAN("table.primes");
    const CubeSpace& s = pla.space();
    Cover care = pla.on;
    care.append(pla.dc);

    if (opt.method != PrimeMethod::kConsensus) {
        bool over_limit = false;
        try {
            ZddManager zmgr(2 * (s.num_inputs + s.num_outputs), opt.dd);
            const auto result = primes::implicit_primes(zmgr, care, opt.dd);
            over_limit = result.prime_count > static_cast<double>(opt.max_primes);
            if (!over_limit) {
                used_implicit = true;
                return primes::primes_zdd_to_cover(zmgr, result.primes, s);
            }
        } catch (const ResourceError& e) {
            // Graceful degradation: only a node-budget trip under kAuto falls
            // through to consensus — deadline/cancel must propagate, and an
            // explicitly requested implicit run must fail loudly.
            if (opt.method != PrimeMethod::kAuto ||
                e.status() != Status::kNodeBudget)
                throw;
            stats::counter("budget.zdd_fallbacks").add();
            TRACE_INSTANT("budget.zdd_fallback");
        }
        if (over_limit)
            throw ResourceError(Status::kNodeBudget,
                                "implicit prime count exceeds max_primes");
    }

    used_implicit = false;
    return primes::primes_by_consensus(care, opt.max_primes, nullptr,
                                       opt.dd.governor);
}

/// The row order of the covering matrix: signatures compare element-wise
/// ascending, with a proper prefix sorting AFTER its extensions (the order
/// in which a member-first partition refinement over ascending columns
/// emits its classes). Both row paths dedupe through this order, which is
/// what makes their matrices bit-identical.
struct MemberFirstLess {
    bool operator()(const std::vector<Index>& a,
                    const std::vector<Index>& b) const noexcept {
        const std::size_t n = std::min(a.size(), b.size());
        for (std::size_t t = 0; t < n; ++t)
            if (a[t] != b[t]) return a[t] < b[t];
        return a.size() > b.size();
    }
};

/// Invokes fn(assignment) for every input minterm of `c` (outputs ignored).
template <class Fn>
void for_each_minterm(const CubeSpace& s, const Cube& c, Fn&& fn) {
    std::vector<std::uint64_t> a(s.in_words(), 0);
    std::vector<std::uint32_t> free_pos;
    for (std::uint32_t i = 0; i < s.num_inputs; ++i) {
        switch (c.in(s, i)) {
            case pla::Lit::kOne: a[i / 64] |= std::uint64_t{1} << (i % 64); break;
            case pla::Lit::kZero: break;
            case pla::Lit::kDontCare: free_pos.push_back(i); break;
            case pla::Lit::kEmpty: return;  // empty input part: no minterms
        }
    }
    const std::uint64_t total = std::uint64_t{1} << free_pos.size();
    for (std::uint64_t mask = 0; mask < total; ++mask) {
        for (std::size_t t = 0; t < free_pos.size(); ++t) {
            const std::uint32_t i = free_pos[t];
            if ((mask >> t) & 1)
                a[i / 64] |= std::uint64_t{1} << (i % 64);
            else
                a[i / 64] &= ~(std::uint64_t{1} << (i % 64));
        }
        fn(a);
    }
}

/// Explicit (ZDD-free) signature-class matrix: enumerate the care on-set
/// minterms per output, compute each one's covering-column signature and
/// dedupe in the implicit phase's class order.
OnsetMatrix onset_matrix_explicit(const pla::Pla& pla, const Cover& columns,
                                  std::size_t max_rows, Budget* governor) {
    const CubeSpace& s = pla.space();
    const std::size_t P = columns.size();
    // Enumeration work cap, applied per output across the on+dc cubes.
    constexpr std::uint64_t kPointCap = std::uint64_t{1} << 26;

    OnsetMatrix out;
    std::map<std::vector<Index>, Index> row_of_signature;
    std::vector<std::vector<Index>> rows;
    std::unordered_set<Index> essential_set;

    for (std::uint32_t k = 0; k < s.num_outputs; ++k) {
        if (governor != nullptr)
            throw_if_error(governor->check(), "explicit onset rows");

        std::vector<Index> cols_k;
        for (Index j = 0; j < static_cast<Index>(P); ++j)
            if (columns[j].out(s, k)) cols_k.push_back(j);

        // Care on-set points of output k: ON minus DC (Espresso semantics).
        std::set<std::vector<std::uint64_t>> points;
        std::uint64_t point_budget = kPointCap;
        const auto charge_cube = [&](const Cube& c) {
            std::uint32_t free_bits = 0;
            for (std::uint32_t i = 0; i < s.num_inputs; ++i)
                if (c.in(s, i) == pla::Lit::kDontCare) ++free_bits;
            if (free_bits >= 26 ||
                (std::uint64_t{1} << free_bits) > point_budget)
                throw ResourceError(
                    Status::kNodeBudget,
                    "explicit row enumeration exceeds the point cap");
            point_budget -= std::uint64_t{1} << free_bits;
        };
        for (const auto& c : pla.on) {
            if (!c.out(s, k)) continue;
            charge_cube(c);
            for_each_minterm(s, c, [&](const std::vector<std::uint64_t>& a) {
                points.insert(a);
            });
        }
        for (const auto& c : pla.dc) {
            if (!c.out(s, k)) continue;
            charge_cube(c);
            for_each_minterm(s, c, [&](const std::vector<std::uint64_t>& a) {
                points.erase(a);
            });
        }
        if (points.empty()) continue;
        out.onset_minterms += static_cast<double>(points.size());

        std::set<std::vector<Index>, MemberFirstLess> sigs;
        for (const auto& a : points) {
            std::vector<Index> sig;
            for (const Index j : cols_k)
                if (columns[j].covers_assignment(s, a)) sig.push_back(j);
            if (sig.empty())
                throw BadInputError("columns do not cover the care on-set");
            sigs.insert(std::move(sig));
            if (sigs.size() > max_rows)
                throw ResourceError(Status::kNodeBudget,
                                    "signature classes exceed max_rows guard");
        }
        for (const auto& sig : sigs) {
            if (sig.size() == 1) essential_set.insert(sig[0]);
            const auto [it, inserted] = row_of_signature.emplace(
                sig, static_cast<Index>(rows.size()));
            if (inserted) rows.push_back(it->first);
        }
    }

    out.essential_columns = essential_set.size();
    out.matrix =
        cov::CoverMatrix::from_rows(static_cast<Index>(P), std::move(rows));
    return out;
}

/// The signature classes of one output's care on-set, found by a single
/// memoised, read-only descent of its minterm ZDD (DESIGN.md §8).
///
/// A walk state is (node, level, live): the sub-family of minterms reachable
/// at `node` once levels 0..level-1 are fixed, and the local columns still
/// compatible with that prefix. Each level drops the columns whose literal
/// contradicts the branch taken: a level above the node's top (zero-
/// suppressed) or a node's branch `lo` means x = 0, a level inside a chain
/// ⟨t:b⟩ above b or a branch `hi` means x = 1. Once no live column has a
/// literal at or below the current level, every minterm left has the live
/// set as its signature, so it is emitted and the descent stops. Branch
/// states are memoised on (node, level, live): a revisit adds no signature.
/// The walk only reads the arena (var_of/bot_of/lo_of/hi_of), so it creates
/// no node and can never trigger a GC under the caller's held on-set root.
class SignatureWalk {
public:
    using Signatures = std::set<std::vector<Index>, MemberFirstLess>;

    /// `cols` are the columns asserting the output, ascending (their local
    /// bit i stands for column cols[i]).
    SignatureWalk(const ZddManager& mgr, const CubeSpace& s,
                  const Cover& columns, std::vector<Index> cols,
                  std::size_t max_rows)
        : mgr_(mgr),
          levels_(s.num_inputs),
          words_((cols.size() + 63) / 64),
          cols_(std::move(cols)),
          max_rows_(max_rows),
          kill0_(levels_ * words_, 0),
          kill1_(levels_ * words_, 0),
          tail_((levels_ + 1) * words_, 0),
          live_((levels_ + 1) * words_, 0) {
        for (std::size_t i = 0; i < cols_.size(); ++i) {
            const std::uint64_t bit = std::uint64_t{1} << (i % 64);
            for (std::uint32_t v = 0; v < levels_; ++v) {
                switch (columns[cols_[i]].in(s, v)) {
                    case pla::Lit::kOne: kill0_[v * words_ + i / 64] |= bit; break;
                    case pla::Lit::kZero: kill1_[v * words_ + i / 64] |= bit; break;
                    default: break;
                }
            }
        }
        // tail(v) = columns with a literal at some level ≥ v; tail(n) = ∅.
        for (std::uint32_t v = levels_; v-- > 0;)
            for (std::size_t w = 0; w < words_; ++w)
                tail_[v * words_ + w] = tail_[(v + 1) * words_ + w] |
                                        kill0_[v * words_ + w] |
                                        kill1_[v * words_ + w];
    }

    /// Signatures of every minterm of `onset`, in MemberFirstLess order.
    Signatures run(NodeId onset) {
        for (std::size_t i = 0; i < cols_.size(); ++i)
            live_[i / 64] |= std::uint64_t{1} << (i % 64);
        walk(onset, 0);
        return std::move(sigs_);
    }

    [[nodiscard]] std::uint64_t states() const noexcept { return states_; }

private:
    std::uint64_t* live_at(std::uint32_t v) noexcept {
        return live_.data() + static_cast<std::size_t>(v) * words_;
    }

    void walk(NodeId n, std::uint32_t v) {
        if (n == zdd::kEmpty) return;
        ++states_;
        if ((states_ & 1023) == 0 && mgr_.governor() != nullptr)
            throw_if_error(mgr_.governor()->check(), "onset signature walk");
        const std::uint64_t* live = live_at(v);
        const std::uint64_t* tail = tail_.data() + v * words_;
        bool split = false;
        for (std::size_t w = 0; w < words_ && !split; ++w)
            split = (live[w] & tail[w]) != 0;
        if (!split) {
            emit(live);
            return;
        }
        // A live literal at level ≥ v exists, so v < levels_ here.
        const Var top = mgr_.var_of(n);  // kTermVar for the base terminal
        if (v < top) {
            step(n, v, kill0_);  // zero-suppressed level: x_v = 0
        } else if (v < mgr_.bot_of(n)) {
            step(n, v, kill1_);  // inside a chain: x_v = 1
        } else if (memo_insert(n, v, live)) {
            step(mgr_.lo_of(n), v, kill0_);
            step(mgr_.hi_of(n), v, kill1_);
        }
    }

    void step(NodeId child, std::uint32_t v, const std::vector<std::uint64_t>& kill) {
        const std::uint64_t* live = live_at(v);
        std::uint64_t* next = live_at(v + 1);
        const std::uint64_t* k = kill.data() + v * words_;
        for (std::size_t w = 0; w < words_; ++w) next[w] = live[w] & ~k[w];
        walk(child, v + 1);
    }

    void emit(const std::uint64_t* live) {
        std::vector<Index> sig;
        for (std::size_t w = 0; w < words_; ++w)
            for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1)
                sig.push_back(cols_[w * 64 + std::countr_zero(bits)]);
        if (sig.empty())
            throw BadInputError("columns do not cover the care on-set");
        sigs_.insert(std::move(sig));
        if (sigs_.size() > max_rows_)
            throw ResourceError(Status::kNodeBudget,
                                "signature classes exceed max_rows guard");
    }

    /// Records the branch state; false if it was visited before. Open
    /// addressing over a flat pool of [node | level << 32, live words...]
    /// records, so a state costs no allocation (a hash set of key vectors
    /// measured 12% slower on the suites' onset layer).
    bool memo_insert(NodeId n, std::uint32_t v, const std::uint64_t* live) {
        const std::size_t stride = 1 + words_;
        const std::uint64_t head = n | (static_cast<std::uint64_t>(v) << 32);
        if (2 * (memo_size_ + 1) > memo_slots_.size()) memo_grow();
        const std::size_t mask = memo_slots_.size() - 1;
        for (std::size_t at = memo_hash(head, live) & mask;; at = (at + 1) & mask) {
            const std::uint32_t e = memo_slots_[at];
            if (e == 0) {
                memo_slots_[at] = static_cast<std::uint32_t>(++memo_size_);
                memo_pool_.push_back(head);
                memo_pool_.insert(memo_pool_.end(), live, live + words_);
                return true;
            }
            const std::uint64_t* rec = memo_pool_.data() + (e - 1) * stride;
            if (rec[0] == head && std::equal(live, live + words_, rec + 1))
                return false;
        }
    }

    [[nodiscard]] std::size_t memo_hash(std::uint64_t head,
                                        const std::uint64_t* live) const noexcept {
        std::uint64_t h = head * 0x9e3779b97f4a7c15ULL;
        for (std::size_t w = 0; w < words_; ++w) {
            h ^= live[w];
            h *= 0xff51afd7ed558ccdULL;
            h ^= h >> 33;
        }
        return static_cast<std::size_t>(h);
    }

    /// Doubles the slot array (at least 1024 slots) and re-slots the pool.
    void memo_grow() {
        const std::size_t stride = 1 + words_;
        memo_slots_.assign(std::max<std::size_t>(1024, 2 * memo_slots_.size()), 0);
        const std::size_t mask = memo_slots_.size() - 1;
        for (std::size_t e = 0; e < memo_size_; ++e) {
            const std::uint64_t* rec = memo_pool_.data() + e * stride;
            std::size_t at = memo_hash(rec[0], rec + 1) & mask;
            while (memo_slots_[at] != 0) at = (at + 1) & mask;
            memo_slots_[at] = static_cast<std::uint32_t>(e + 1);
        }
    }

    const ZddManager& mgr_;
    const std::uint32_t levels_;
    const std::size_t words_;
    const std::vector<Index> cols_;
    const std::size_t max_rows_;
    std::vector<std::uint64_t> kill0_;  ///< per level: columns with literal x
    std::vector<std::uint64_t> kill1_;  ///< per level: columns with literal x̄
    std::vector<std::uint64_t> tail_;   ///< per level: literal at or below
    std::vector<std::uint64_t> live_;   ///< per depth: the live columns
    std::vector<std::uint32_t> memo_slots_;  ///< pool entry + 1, 0 = empty
    std::vector<std::uint64_t> memo_pool_;
    std::size_t memo_size_ = 0;
    std::uint64_t states_ = 0;
    Signatures sigs_;
};

/// The implicit phase: the care on-set of each output as a minterm ZDD, and
/// its signature classes from one SignatureWalk over it.
OnsetMatrix onset_matrix_implicit(const pla::Pla& pla, const Cover& columns,
                                  std::size_t max_rows,
                                  const zdd::DdOptions& dd) {
    const CubeSpace& s = pla.space();
    const std::size_t P = columns.size();

    OnsetMatrix out;
    ZddManager mgr(s.num_inputs == 0 ? 1 : s.num_inputs, dd);

    // Signature-class rows, deduplicated across outputs.
    std::map<std::vector<Index>, Index> row_of_signature;
    std::vector<std::vector<Index>> rows;
    std::unordered_set<Index> essential_set;
    std::uint64_t states = 0, classes = 0;

    for (std::uint32_t k = 0; k < s.num_outputs; ++k) {
        if (mgr.governor() != nullptr)
            throw_if_error(mgr.governor()->check(), "onset signature walk");
        // U_k: care on-set minterms of output k. Points also listed as
        // don't-care are excluded — they need not be covered (Espresso
        // semantics, kept consistent with the baseline minimiser).
        Zdd onset = mgr.empty();
        {
            TRACE_SPAN("table.onset_build");
            for (const auto& c : pla.on) {
                if (!c.out(s, k)) continue;
                onset = mgr.union_(onset,
                                   zdd::minterms_of_cube(mgr, cube_spec(s, c)));
            }
            for (const auto& c : pla.dc) {
                if (!c.out(s, k)) continue;
                onset = mgr.diff(onset, zdd::minterms_of_cube(mgr, cube_spec(s, c)));
            }
        }
        if (onset.is_empty()) continue;
        out.onset_minterms += mgr.count(onset);

        SignatureWalk::Signatures sigs;
        {
            TRACE_SPAN("table.onset_walk");
            std::vector<Index> cols_k;
            for (Index j = 0; j < static_cast<Index>(P); ++j)
                if (columns[j].out(s, k)) cols_k.push_back(j);
            SignatureWalk walk(mgr, s, columns, std::move(cols_k), max_rows);
            sigs = walk.run(onset.id());
            states += walk.states();
        }
        classes += sigs.size();

        for (const auto& sig : sigs) {
            if (sig.size() == 1) essential_set.insert(sig[0]);
            const auto [it, inserted] = row_of_signature.emplace(
                sig, static_cast<Index>(rows.size()));
            if (inserted) rows.push_back(it->first);
        }
    }
    stats::counter("table.onset_states").add(states);
    stats::counter("table.classes").add(classes);

    out.essential_columns = essential_set.size();
    out.matrix =
        cov::CoverMatrix::from_rows(static_cast<Index>(P), std::move(rows));
    return out;
}

}  // namespace

OnsetMatrix onset_covering_matrix(const pla::Pla& pla, const Cover& columns,
                                  std::size_t max_rows,
                                  const zdd::DdOptions& dd, RowMethod method) {
    TRACE_SPAN("table.onset_matrix");
    const CubeSpace& s = pla.space();
    UCP_REQUIRE(s.num_outputs >= 1, "PLA must have at least one output");
    UCP_REQUIRE(columns.space() == s, "column cover space mismatch");

    if (method != RowMethod::kExplicit) {
        try {
            return onset_matrix_implicit(pla, columns, max_rows, dd);
        } catch (const ResourceError& e) {
            // Node-budget trips degrade to the explicit path under kAuto;
            // deadline/cancel (and forced-implicit runs) propagate.
            if (method == RowMethod::kImplicit ||
                e.status() != Status::kNodeBudget)
                throw;
            stats::counter("budget.zdd_fallbacks").add();
            TRACE_INSTANT("budget.zdd_fallback");
        }
    }
    return onset_matrix_explicit(pla, columns, max_rows, dd.governor);
}

CoveringTable build_covering_table(const pla::Pla& pla,
                                   const TableBuildOptions& opt) {
    Timer total;
    const CubeSpace& s = pla.space();
    UCP_REQUIRE(s.num_outputs >= 1, "PLA must have at least one output");

    CoveringTable table;
    {
        Timer pt;
        table.primes = generate_primes(pla, opt, table.used_implicit_primes);
        table.prime_seconds = pt.seconds();
    }
    const std::size_t P = table.primes.size();
    if (P > opt.max_cols)
        throw ResourceError(Status::kNodeBudget,
                            "prime count exceeds max_cols guard");
    if (P == 0) {
        // Empty on-set: nothing to cover.
        table.matrix = cov::CoverMatrix::from_rows(0, {});
        table.build_seconds = total.seconds();
        return table;
    }

    OnsetMatrix onset = onset_covering_matrix(pla, table.primes, opt.max_rows,
                                              opt.dd, opt.row_method);
    table.onset_minterms = onset.onset_minterms;
    table.num_essential_primes = onset.essential_columns;

    table.column_prime.resize(P);
    for (Index j = 0; j < static_cast<Index>(P); ++j) table.column_prime[j] = j;

    // Column costs per the chosen model.
    std::vector<cov::Cost> costs(P, 1);
    switch (opt.cost_model) {
        case CostModel::kProducts:
            break;
        case CostModel::kProductsThenLiterals: {
            // W must exceed any achievable literal total so the product count
            // stays the primary key.
            table.weight_scale =
                static_cast<cov::Cost>(s.num_inputs) * static_cast<cov::Cost>(P) +
                1;
            for (Index j = 0; j < static_cast<Index>(P); ++j)
                costs[j] = table.weight_scale +
                           table.primes[j].input_literal_count(s);
            break;
        }
        case CostModel::kLiterals:
            for (Index j = 0; j < static_cast<Index>(P); ++j)
                costs[j] = std::max<cov::Cost>(
                    1, table.primes[j].input_literal_count(s));
            break;
    }
    // Rebuild with the chosen costs (rows are identical).
    {
        std::vector<std::vector<Index>> rows;
        rows.reserve(onset.matrix.num_rows());
        for (Index i = 0; i < onset.matrix.num_rows(); ++i)
            rows.push_back(onset.matrix.row(i));
        table.matrix = cov::CoverMatrix::from_rows(static_cast<Index>(P),
                                                   std::move(rows),
                                                   std::move(costs));
    }
    table.build_seconds = total.seconds();
    return table;
}

pla::Cover solution_to_cover(const CoveringTable& table,
                             const std::vector<Index>& solution) {
    pla::Cover out(table.primes.space());
    for (const Index j : solution) {
        UCP_REQUIRE(j < table.column_prime.size(), "solution column out of range");
        out.add(table.primes[table.column_prime[j]]);
    }
    return out;
}

}  // namespace ucp::cover
