#include "cover/table_builder.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "cover/signature_set.hpp"
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

/// The max_rows guard. A type of its own so that RowMethod::kAuto does not
/// fall back on it: the explicit path finds the same classes, so it would
/// only overflow the same guard, later.
class MaxRowsError : public ResourceError {
public:
    MaxRowsError()
        : ResourceError(Status::kNodeBudget,
                        "signature classes exceed max_rows guard") {}
};

/// Adds one minterm's signature (a bitset over the output's local columns)
/// to that output's classes, enforcing coverage and the max_rows guard.
void add_class(RecordSet& classes, const std::uint64_t* sig,
               std::size_t max_rows) {
    if (std::all_of(sig, sig + classes.stride(),
                    [](std::uint64_t w) { return w == 0; }))
        throw BadInputError("columns do not cover the care on-set");
    if (classes.insert(sig) && classes.size() > max_rows) throw MaxRowsError();
}

/// The columns asserting output k, ascending: local bit i of that output's
/// signatures stands for column cols[i].
std::vector<Index> output_columns(const CubeSpace& s, const Cover& columns,
                                  std::uint32_t k) {
    std::vector<Index> cols;
    for (Index j = 0; j < static_cast<Index>(columns.size()); ++j)
        if (columns[j].out(s, k)) cols.push_back(j);
    return cols;
}

/// The rows of the covering matrix, written once: each output's classes are
/// decoded to global columns straight into flat CSR arrays, and an open-
/// addressing table over the (offset, length) of the rows kept so far drops
/// a class another output already produced. Both row paths feed this sink,
/// so their matrices are bit-identical by construction.
class RowSink {
public:
    explicit RowSink(std::size_t num_cols) : essential_(num_cols, 0) {}

    /// Appends output classes `classes` over local columns `cols`, in the
    /// row order (member_first_order); a repeat of an earlier row is dropped.
    void add_output(const RecordSet& classes, const std::vector<Index>& cols) {
        TRACE_SPAN("table.onset_rows");
        // An output's classes are distinct, so the rows of the first output
        // with any are kept unhashed: the row index is built when a second
        // output brings rows that could repeat them.
        const bool first = row_off_.size() == 1;
        for (const std::uint32_t e : member_first_order(classes)) {
            const std::uint64_t* sig = classes.record(e);
            std::size_t len = 0;
            for (std::size_t w = 0; w < classes.stride(); ++w)
                len += static_cast<std::size_t>(std::popcount(sig[w]));
            const std::size_t start = row_idx_.size();
            row_idx_.resize(start + len);
            Index* out = row_idx_.data() + start;
            for (std::size_t w = 0; w < classes.stride(); ++w)
                for (std::uint64_t bits = sig[w]; bits != 0; bits &= bits - 1)
                    *out++ = cols[w * 64 + std::countr_zero(bits)];
            if (first)
                keep_row();
            else
                commit_row();
        }
    }

    double onset_minterms = 0.0;  ///< Σ_k |U_k|, added by the row path

    /// The covering matrix over `costs` (empty = unit costs).
    OnsetMatrix finish(std::vector<cov::Cost> costs) && {
        TRACE_SPAN("table.onset_rows");
        stats::counter("table.signature_dups").add(dups_);
        OnsetMatrix out;
        out.onset_minterms = onset_minterms;
        out.essential_columns = essentials_;
        out.matrix = cov::CoverMatrix::from_csr(
            static_cast<Index>(essential_.size()), std::move(row_off_),
            std::move(row_idx_), std::move(costs));
        return out;
    }

private:
    /// Keeps the row row_idx_[row_off_.back() ..).
    void keep_row() {
        const std::size_t start = row_off_.back();
        if (row_idx_.size() - start == 1 && essential_[row_idx_[start]] == 0) {
            essential_[row_idx_[start]] = 1;
            ++essentials_;
        }
        row_off_.push_back(row_idx_.size());
    }

    /// Keeps the row row_idx_[row_off_.back() ..) unless it repeats one.
    void commit_row() {
        const std::size_t start = row_off_.back();
        const std::size_t len = row_idx_.size() - start;
        const Index* row = row_idx_.data() + start;
        const std::size_t rows = row_off_.size() - 1;
        if (2 * (rows + 1) > slots_.size()) reslot();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t at = hash(row, len) & mask;; at = (at + 1) & mask) {
            const std::uint32_t r = slots_[at];
            if (r == 0) {
                slots_[at] = static_cast<std::uint32_t>(rows + 1);
                keep_row();
                return;
            }
            const std::size_t off = row_off_[r - 1];
            if (row_off_[r] - off == len &&
                std::equal(row, row + len, row_idx_.data() + off)) {
                row_idx_.resize(start);
                ++dups_;
                return;
            }
        }
    }

    static std::size_t hash(const Index* row, std::size_t len) noexcept {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ len;
        for (std::size_t t = 0; t < len; ++t) {
            h ^= row[t];
            h *= 0xff51afd7ed558ccdULL;
            h ^= h >> 33;
        }
        return static_cast<std::size_t>(h);
    }

    /// Sizes the slot array for twice the rows (at least 1024 slots) and
    /// slots every row kept so far.
    void reslot() {
        slots_.assign(
            std::bit_ceil(std::max<std::size_t>(1024, 4 * row_off_.size())), 0);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t r = 0; r + 1 < row_off_.size(); ++r) {
            const std::size_t off = row_off_[r];
            std::size_t at =
                hash(row_idx_.data() + off, row_off_[r + 1] - off) & mask;
            while (slots_[at] != 0) at = (at + 1) & mask;
            slots_[at] = static_cast<std::uint32_t>(r + 1);
        }
    }

    std::vector<std::size_t> row_off_{0};
    std::vector<Index> row_idx_;
    std::vector<std::uint32_t> slots_;  ///< row + 1, 0 = empty
    std::vector<char> essential_;       ///< per column: some singleton row
    std::size_t essentials_ = 0;
    std::uint64_t dups_ = 0;
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

/// Explicit (ZDD-free) signature-class rows: enumerate the care on-set
/// minterms per output and compute each one's covering-column signature.
RowSink onset_rows_explicit(const pla::Pla& pla, const Cover& columns,
                            std::size_t max_rows, Budget* governor) {
    using Point = std::vector<std::uint64_t>;
    const CubeSpace& s = pla.space();
    // Enumeration work cap, applied per output across the on+dc cubes.
    constexpr std::uint64_t kPointCap = std::uint64_t{1} << 26;

    RowSink sink(columns.size());
    for (std::uint32_t k = 0; k < s.num_outputs; ++k) {
        if (governor != nullptr)
            throw_if_error(governor->check(), "explicit onset rows");

        const std::vector<Index> cols_k = output_columns(s, columns, k);

        // Care on-set points of output k: ON minus DC (Espresso semantics).
        std::uint64_t point_budget = kPointCap;
        const auto points_of = [&](const Cover& plane) {
            std::vector<Point> points;
            for (const auto& c : plane) {
                if (!c.out(s, k)) continue;
                std::uint32_t free_bits = 0;
                for (std::uint32_t i = 0; i < s.num_inputs; ++i)
                    if (c.in(s, i) == pla::Lit::kDontCare) ++free_bits;
                if (free_bits >= 26 ||
                    (std::uint64_t{1} << free_bits) > point_budget)
                    throw ResourceError(
                        Status::kNodeBudget,
                        "explicit row enumeration exceeds the point cap");
                point_budget -= std::uint64_t{1} << free_bits;
                for_each_minterm(s, c,
                                 [&](const Point& a) { points.push_back(a); });
            }
            std::sort(points.begin(), points.end());
            points.erase(std::unique(points.begin(), points.end()), points.end());
            return points;
        };
        const std::vector<Point> on = points_of(pla.on);
        const std::vector<Point> dc = points_of(pla.dc);
        std::vector<Point> points;
        std::set_difference(on.begin(), on.end(), dc.begin(), dc.end(),
                            std::back_inserter(points));
        if (points.empty()) continue;
        sink.onset_minterms += static_cast<double>(points.size());

        RecordSet classes((cols_k.size() + 63) / 64);
        std::vector<std::uint64_t> sig(classes.stride());
        for (const Point& a : points) {
            std::fill(sig.begin(), sig.end(), 0);
            for (std::size_t i = 0; i < cols_k.size(); ++i)
                if (columns[cols_k[i]].covers_assignment(s, a))
                    sig[i / 64] |= std::uint64_t{1} << (i % 64);
            add_class(classes, sig.data(), max_rows);
        }
        sink.add_output(classes, cols_k);
    }
    return sink;
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
    /// `cols` are the columns asserting the output, ascending (their local
    /// bit i stands for column cols[i]).
    SignatureWalk(const ZddManager& mgr, const CubeSpace& s,
                  const Cover& columns, const std::vector<Index>& cols,
                  std::size_t max_rows)
        : mgr_(mgr),
          levels_(s.num_inputs),
          words_((cols.size() + 63) / 64),
          max_rows_(max_rows),
          kill0_(levels_ * words_, 0),
          kill1_(levels_ * words_, 0),
          tail_((levels_ + 1) * words_, 0),
          live_((levels_ + 1) * words_, 0),
          memo_key_(1 + words_),
          memo_(1 + words_),
          classes_(words_) {
        for (std::size_t i = 0; i < cols.size(); ++i) {
            const std::uint64_t bit = std::uint64_t{1} << (i % 64);
            live_[i / 64] |= bit;
            for (std::uint32_t v = 0; v < levels_; ++v) {
                switch (columns[cols[i]].in(s, v)) {
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

    /// The distinct signatures of the minterms of `onset`.
    RecordSet run(NodeId onset) {
        walk(onset, 0);
        return std::move(classes_);
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
            add_class(classes_, live, max_rows_);
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

    /// Records the branch state [node | level << 32, live words...]; false
    /// if it was visited before.
    bool memo_insert(NodeId n, std::uint32_t v, const std::uint64_t* live) {
        memo_key_[0] = n | (static_cast<std::uint64_t>(v) << 32);
        std::copy(live, live + words_, memo_key_.begin() + 1);
        return memo_.insert(memo_key_.data());
    }

    const ZddManager& mgr_;
    const std::uint32_t levels_;
    const std::size_t words_;
    const std::size_t max_rows_;
    std::vector<std::uint64_t> kill0_;  ///< per level: columns with literal x
    std::vector<std::uint64_t> kill1_;  ///< per level: columns with literal x̄
    std::vector<std::uint64_t> tail_;   ///< per level: literal at or below
    std::vector<std::uint64_t> live_;   ///< per depth: the live columns
    std::vector<std::uint64_t> memo_key_;
    RecordSet memo_;
    RecordSet classes_;
    std::uint64_t states_ = 0;
};

/// The implicit phase: the care on-set of each output as a minterm ZDD, and
/// its signature classes from one SignatureWalk over it.
RowSink onset_rows_implicit(const pla::Pla& pla, const Cover& columns,
                            std::size_t max_rows, const zdd::DdOptions& dd) {
    const CubeSpace& s = pla.space();
    ZddManager mgr(s.num_inputs == 0 ? 1 : s.num_inputs, dd);

    RowSink sink(columns.size());
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
        sink.onset_minterms += mgr.count(onset);

        const std::vector<Index> cols_k = output_columns(s, columns, k);
        RecordSet sigs(0);
        {
            TRACE_SPAN("table.onset_walk");
            SignatureWalk walk(mgr, s, columns, cols_k, max_rows);
            sigs = walk.run(onset.id());
            states += walk.states();
        }
        classes += sigs.size();
        sink.add_output(sigs, cols_k);
    }
    stats::counter("table.onset_states").add(states);
    stats::counter("table.classes").add(classes);
    return sink;
}

}  // namespace

OnsetMatrix onset_covering_matrix(const pla::Pla& pla, const Cover& columns,
                                  std::size_t max_rows,
                                  const zdd::DdOptions& dd, RowMethod method,
                                  std::vector<cov::Cost> costs) {
    TRACE_SPAN("table.onset_matrix");
    const CubeSpace& s = pla.space();
    UCP_REQUIRE(s.num_outputs >= 1, "PLA must have at least one output");
    UCP_REQUIRE(columns.space() == s, "column cover space mismatch");

    std::optional<RowSink> rows;
    if (method != RowMethod::kExplicit) {
        try {
            rows.emplace(onset_rows_implicit(pla, columns, max_rows, dd));
        } catch (const MaxRowsError&) {
            throw;  // the explicit path would overflow the same guard
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
    if (!rows)
        rows.emplace(onset_rows_explicit(pla, columns, max_rows, dd.governor));
    return std::move(*rows).finish(std::move(costs));
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
        // Empty on-set: nothing to cover (the default matrix is 0 × 0).
        table.build_seconds = total.seconds();
        return table;
    }

    table.column_prime.resize(P);
    for (Index j = 0; j < static_cast<Index>(P); ++j) table.column_prime[j] = j;

    // Column costs per the chosen model; they depend on the primes alone.
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

    OnsetMatrix onset = onset_covering_matrix(pla, table.primes, opt.max_rows,
                                              opt.dd, opt.row_method,
                                              std::move(costs));
    table.matrix = std::move(onset.matrix);
    table.onset_minterms = onset.onset_minterms;
    table.num_essential_primes = onset.essential_columns;
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
