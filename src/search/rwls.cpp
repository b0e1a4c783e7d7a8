#include "search/rwls.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace ucp::search {

using cov::Cost;
using cov::CoverMatrix;
using cov::Index;
using cov::SubMatrix;

namespace {

constexpr Index kNone = static_cast<Index>(-1);

/// The search engine over one matrix view. `Matrix` is CoverMatrix or
/// SubMatrix; everything runs on base indices and skips dead slots, like the
/// Lagrangian engines.
template <class Matrix>
class Engine {
public:
    Engine(const Matrix& m, const RwlsOptions& opt, RwlsWorkspace& ws)
        : m_(m), opt_(opt), ws_(ws), rng_(opt.seed) {}

    RwlsResult run() {
        static stats::Counter& c_calls = stats::counter("rwls.calls");
        static stats::Counter& c_steps = stats::counter("rwls.steps");
        static stats::Counter& c_improve = stats::counter("rwls.improvements");
        const stats::ScopedTimer phase_timer("rwls.seconds");
        TRACE_SPAN("rwls");
        c_calls.add();

        Timer timer;
        RwlsResult out;
        init_state();
        seed_solution();

        Cost best_cost = cur_cost_;
        ws_.best = ws_.solution;  // feasible by construction
        const double lb = static_cast<double>(opt_.target_lower_bound);

        std::uint64_t step = 0;
        while (true) {
            if (opt_.governor != nullptr) {
                const Status st = opt_.governor->charge_iteration();
                if (st != Status::kOk) {
                    out.status = st;
                    break;
                }
            }
            if (ws_.uncovered.empty()) {
                strip_redundant();
                if (cur_cost_ < best_cost) {
                    best_cost = cur_cost_;
                    ws_.best = ws_.solution;
                    ++out.improvements;
                    TRACE_ITER("rwls", static_cast<std::int64_t>(step), lb,
                               static_cast<double>(best_cost),
                               static_cast<double>(cur_cost_),
                               static_cast<std::uint64_t>(ws_.uncovered.size()),
                               static_cast<std::uint64_t>(ws_.solution.size()),
                               0.0);
                }
                if (best_cost <= opt_.target_lower_bound) break;
                if (opt_.max_steps != 0 && step >= opt_.max_steps) break;
                // Dive: drop the least-useful column and keep searching.
                const Index u = pick_removal();
                if (u == kNone) break;  // empty cover cannot improve
                remove_col(u);
                ws_.stamp[u] = step;
                ws_.tabu_until[u] = step + 1 + opt_.tabu_tenure;
            } else {
                if (opt_.max_steps != 0 && step >= opt_.max_steps) break;
                // Swap: remove the highest-score solution column, then cover
                // a random uncovered row with its best non-tabu column.
                const Index u = pick_removal();
                if (u != kNone) {
                    remove_col(u);
                    ws_.stamp[u] = step;
                    ws_.tabu_until[u] = step + 1 + opt_.tabu_tenure;
                }
                const Index r = ws_.uncovered[static_cast<std::size_t>(
                    rng_.below(ws_.uncovered.size()))];
                const Index v = pick_addition(r, step);
                UCP_ASSERT(v != kNone);  // every row has a covering column
                add_col(v);
                ws_.stamp[v] = step;
            }
            bump_weights();
            ++step;
            if (opt_.audit_every != 0 && step % opt_.audit_every == 0) {
                ++out.audits;
                out.audit_mismatches += audit_scores();
            }
            if ((step & 127) == 0)
                TRACE_ITER("rwls", static_cast<std::int64_t>(step), lb,
                           static_cast<double>(best_cost),
                           static_cast<double>(cur_cost_),
                           static_cast<std::uint64_t>(ws_.uncovered.size()),
                           static_cast<std::uint64_t>(ws_.solution.size()),
                           0.0);
        }

        out.steps = step;
        c_steps.add(step);
        c_improve.add(out.improvements);
        out.solution = ws_.best;
        std::sort(out.solution.begin(), out.solution.end());
        out.cost = best_cost;
        out.seconds = timer.seconds();
        return out;
    }

private:
    // ---- state construction -----------------------------------------------
    void init_state() {
        const std::size_t rows = m_.num_rows();
        const std::size_t cols = m_.num_cols();
        rwls_fit(ws_.weight, rows);
        rwls_fit(ws_.cover_count, rows);
        rwls_fit(ws_.cover_xor, rows);
        rwls_fit(ws_.uncovered_pos, rows);
        rwls_fit(ws_.score, cols);
        rwls_fit(ws_.in_solution, cols);
        rwls_fit(ws_.tabu_until, cols);
        rwls_fit(ws_.stamp, cols);
        rwls_fit(ws_.solution_pos, cols);
        rwls_fit(ws_.uncovered, rows);
        ws_.uncovered.clear();
        rwls_fit(ws_.solution, cols);
        ws_.solution.clear();
        for (std::size_t i = 0; i < rows; ++i) {
            ws_.weight[i] = 1;
            ws_.cover_count[i] = 0;
            ws_.cover_xor[i] = 0;
            ws_.uncovered_pos[i] = kNone;
            if (m_.row_alive(static_cast<Index>(i)))
                uncovered_add(static_cast<Index>(i));
        }
        for (std::size_t j = 0; j < cols; ++j) {
            ws_.in_solution[j] = 0;
            ws_.tabu_until[j] = 0;
            ws_.stamp[j] = 0;
            ws_.solution_pos[j] = kNone;
            // Initial gain: every alive row is uncovered with weight 1.
            ws_.score[j] = m_.col_alive(static_cast<Index>(j))
                               ? static_cast<std::int64_t>(
                                     m_.live_col_size(static_cast<Index>(j)))
                               : 0;
        }
        cur_cost_ = 0;
    }

    /// Installs the warm start (if any), then greedily covers whatever is
    /// still uncovered. Postcondition: the candidate is a feasible cover.
    void seed_solution() {
        for (const Index j : opt_.initial) {
            if (j >= m_.num_cols() || !m_.col_alive(j)) continue;
            if (ws_.in_solution[j] != 0) continue;
            add_col(j);
        }
        while (!ws_.uncovered.empty()) {
            Index pick = kNone;
            for (Index j = 0; j < m_.num_cols(); ++j) {
                if (!m_.col_alive(j) || ws_.in_solution[j] != 0) continue;
                if (ws_.score[j] <= 0) continue;
                if (pick == kNone || gain_better(j, pick)) pick = j;
            }
            UCP_REQUIRE(pick != kNone,
                        "rwls: matrix has an uncoverable live row");
            add_col(pick);
        }
        strip_redundant();
    }

    // ---- incremental moves (the score invariant lives here) ---------------
    /// Adds column v to the candidate. Scores stay exact: columns covering a
    /// newly-covered row lose that row's weight from their gain; a row going
    /// from one to two coverers releases its weight from the old unique
    /// coverer's loss (that coverer is the row's XOR before v joins it); v's
    /// own loss is the weight of the rows it now covers alone.
    void add_col(Index v) {
        UCP_ASSERT(ws_.in_solution[v] == 0);
        std::int64_t loss_v = 0;
        for (const Index i : m_.col(v)) {
            if (!m_.row_alive(i)) continue;
            const Index old = ws_.cover_count[i]++;
            if (old == 0) {
                uncovered_remove(i);
                loss_v += ws_.weight[i];
                for (const Index j2 : m_.row(i)) {
                    if (j2 == v || !m_.col_alive(j2)) continue;
                    if (ws_.in_solution[j2] == 0) ws_.score[j2] -= ws_.weight[i];
                }
            } else if (old == 1) {
                ws_.score[ws_.cover_xor[i]] += ws_.weight[i];
            }
            ws_.cover_xor[i] ^= v;
        }
        ws_.in_solution[v] = 1;
        ws_.score[v] = -loss_v;
        ws_.solution_pos[v] = static_cast<Index>(ws_.solution.size());
        ws_.solution.push_back(v);
        cur_cost_ += m_.cost(v);
    }

    /// Removes column u. The mirror image of add_col; u's score flips sign in
    /// place (its loss rows are exactly the rows it now gains), and a row
    /// left with one coverer charges its weight to the survivor, which is
    /// the row's XOR once u is folded out.
    void remove_col(Index u) {
        UCP_ASSERT(ws_.in_solution[u] != 0);
        ws_.in_solution[u] = 0;
        const Index pos = ws_.solution_pos[u];
        const Index last = ws_.solution.back();
        ws_.solution[pos] = last;
        ws_.solution_pos[last] = pos;
        ws_.solution.pop_back();
        ws_.solution_pos[u] = kNone;
        ws_.score[u] = -ws_.score[u];
        for (const Index i : m_.col(u)) {
            if (!m_.row_alive(i)) continue;
            const Index old = ws_.cover_count[i]--;
            ws_.cover_xor[i] ^= u;
            if (old == 1) {
                uncovered_add(i);
                for (const Index j2 : m_.row(i)) {
                    if (j2 == u || !m_.col_alive(j2)) continue;
                    if (ws_.in_solution[j2] == 0) ws_.score[j2] += ws_.weight[i];
                }
            } else if (old == 2) {
                ws_.score[ws_.cover_xor[i]] -= ws_.weight[i];
            }
        }
        cur_cost_ -= m_.cost(u);
    }

    /// w_i += 1 on every uncovered row: the rows the search keeps failing on
    /// get heavier, and every column covering them gains accordingly (no
    /// solution column covers an uncovered row, so no loss changes).
    void bump_weights() {
        for (const Index i : ws_.uncovered) {
            ++ws_.weight[i];
            for (const Index j2 : m_.row(i)) {
                if (!m_.col_alive(j2)) continue;
                ws_.score[j2] += 1;
            }
        }
    }

    /// Strips zero-loss (redundant) columns, most expensive first. Keeps the
    /// candidate feasible; scores stay exact through remove_col.
    void strip_redundant() {
        for (;;) {
            Index pick = kNone;
            for (const Index j : ws_.solution) {
                if (ws_.score[j] != 0) continue;
                if (pick == kNone || m_.cost(j) > m_.cost(pick) ||
                    (m_.cost(j) == m_.cost(pick) && j < pick))
                    pick = j;
            }
            if (pick == kNone) return;
            remove_col(pick);
        }
    }

    // ---- move selection ----------------------------------------------------
    /// Solution column to remove: max score (min loss), ties to the higher
    /// cost, then the older stamp, then the lower index — a total order, so
    /// the pick is independent of the solution list's internal order.
    [[nodiscard]] Index pick_removal() const {
        Index pick = kNone;
        for (const Index j : ws_.solution) {
            if (pick == kNone) {
                pick = j;
                continue;
            }
            if (ws_.score[j] != ws_.score[pick]) {
                if (ws_.score[j] > ws_.score[pick]) pick = j;
            } else if (m_.cost(j) != m_.cost(pick)) {
                if (m_.cost(j) > m_.cost(pick)) pick = j;
            } else if (ws_.stamp[j] != ws_.stamp[pick]) {
                if (ws_.stamp[j] < ws_.stamp[pick]) pick = j;
            } else if (j < pick) {
                pick = j;
            }
        }
        return pick;
    }

    /// True when candidate a's gain-per-cost beats b's (cross-multiplied so
    /// the comparison stays in exact integer arithmetic), with ties to the
    /// older stamp then the lower index.
    [[nodiscard]] bool gain_better(Index a, Index b) const {
        const std::int64_t lhs = ws_.score[a] * m_.cost(b);
        const std::int64_t rhs = ws_.score[b] * m_.cost(a);
        if (lhs != rhs) return lhs > rhs;
        if (ws_.stamp[a] != ws_.stamp[b]) return ws_.stamp[a] < ws_.stamp[b];
        return a < b;
    }

    /// Column to add for uncovered row r: best gain-per-cost among the
    /// non-tabu columns covering r; if every candidate is tabu, tabu is
    /// ignored (the aspiration fallback — the step must cover r).
    [[nodiscard]] Index pick_addition(Index r, std::uint64_t step) const {
        Index pick = kNone;
        bool pick_tabu = true;
        for (const Index j : m_.row(r)) {
            if (!m_.col_alive(j) || ws_.in_solution[j] != 0) continue;
            const bool tabu = ws_.tabu_until[j] > step;
            if (pick == kNone || (pick_tabu && !tabu) ||
                (pick_tabu == tabu && gain_better(j, pick))) {
                pick = j;
                pick_tabu = tabu;
            }
        }
        return pick;
    }

    // ---- uncovered-row bookkeeping (swap-remove, O(1)) ---------------------
    void uncovered_add(Index i) {
        ws_.uncovered_pos[i] = static_cast<Index>(ws_.uncovered.size());
        ws_.uncovered.push_back(i);
    }
    void uncovered_remove(Index i) {
        const Index pos = ws_.uncovered_pos[i];
        const Index last = ws_.uncovered.back();
        ws_.uncovered[pos] = last;
        ws_.uncovered_pos[last] = pos;
        ws_.uncovered.pop_back();
        ws_.uncovered_pos[i] = kNone;
    }

    // ---- differential audit -------------------------------------------------
    /// Recomputes every score and every live row's cover-set XOR from
    /// scratch and returns the number of columns whose incremental score
    /// disagrees plus the number of rows whose XOR does. 0 is the invariant.
    [[nodiscard]] std::uint64_t audit_scores() {
        rwls_fit(ws_.audit_score, m_.num_cols());
        std::fill(ws_.audit_score.begin(), ws_.audit_score.end(),
                  std::int64_t{0});
        std::uint64_t mismatches = 0;
        for (Index i = 0; i < m_.num_rows(); ++i) {
            if (!m_.row_alive(i)) continue;
            Index xor_i = 0;
            for (const Index j : m_.row(i))
                if (ws_.in_solution[j] != 0) xor_i ^= j;
            if (xor_i != ws_.cover_xor[i]) ++mismatches;
            if (ws_.cover_count[i] == 0) {
                for (const Index j : m_.row(i)) {
                    if (!m_.col_alive(j) || ws_.in_solution[j] != 0) continue;
                    ws_.audit_score[j] += ws_.weight[i];
                }
            } else if (ws_.cover_count[i] == 1) {
                for (const Index j : m_.row(i)) {
                    if (ws_.in_solution[j] != 0) {
                        ws_.audit_score[j] -= ws_.weight[i];
                        break;
                    }
                }
            }
        }
        for (Index j = 0; j < m_.num_cols(); ++j)
            if (m_.col_alive(j) && ws_.audit_score[j] != ws_.score[j])
                ++mismatches;
        return mismatches;
    }

    const Matrix& m_;
    const RwlsOptions& opt_;
    RwlsWorkspace& ws_;
    Rng rng_;
    Cost cur_cost_ = 0;
};

}  // namespace

RwlsResult rwls_improve(const CoverMatrix& m, const RwlsOptions& opt,
                        RwlsWorkspace& ws) {
    return Engine<CoverMatrix>(m, opt, ws).run();
}

RwlsResult rwls_improve(const SubMatrix& m, const RwlsOptions& opt,
                        RwlsWorkspace& ws) {
    return Engine<SubMatrix>(m, opt, ws).run();
}

RwlsResult rwls_improve(const CoverMatrix& m, const RwlsOptions& opt) {
    RwlsWorkspace ws;
    return rwls_improve(m, opt, ws);
}

}  // namespace ucp::search
