#include "solver/batch.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "solver/greedy.hpp"
#include "util/mem_budget.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ucp::solver {

using cov::Cost;
using cov::CoverMatrix;
using cov::Index;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Phase 1 for one instance: reduce to the cyclic core.
cov::ReduceResult reduce_item(const CoverMatrix& m, const BatchOptions& opt,
                              BatchItem& item) {
    const auto t0 = std::chrono::steady_clock::now();
    cov::ReduceResult red = cov::reduce(m, {}, opt.reduce);
    item.reduce_seconds = seconds_since(t0);
    item.core_rows = red.core.num_rows();
    item.core_cols = red.core.num_cols();
    return red;
}

/// Phase 2 for one instance: solve the core (if any) and lift the solution
/// back to original column indices. `gov` is the item's private governor
/// (nullptr when the batch is unaccounted); an item already degraded by the
/// reduce-phase charge skips SCG and takes the greedy cover of its core —
/// feasible, cheap, and the only honest answer once its budget is gone.
void solve_item(const CoverMatrix& m, const cov::ReduceResult& red,
                const BatchOptions& opt, Budget* gov, BatchItem& item) {
    const auto t0 = std::chrono::steady_clock::now();
    item.solution = red.essential_cols;
    item.cost = red.fixed_cost;
    item.lower_bound = red.fixed_cost;
    if (red.core.num_rows() == 0) {
        item.proved_optimal = true;  // the reductions solved it outright
    } else if (item.status == Status::kResourceExhausted) {
        const GreedyResult g = chvatal_greedy(red.core);
        for (const Index j : g.solution)
            item.solution.push_back(red.core_col_map[j]);
        item.cost += g.cost;
    } else {
        ScgOptions sopt = opt.scg;
        if (sopt.governor == nullptr) sopt.governor = gov;
        ScgResult scg = solve_scg(red.core, sopt);
        for (const Index j : scg.solution)
            item.solution.push_back(red.core_col_map[j]);
        item.cost += scg.cost;
        item.lower_bound += scg.lower_bound;
        item.proved_optimal = scg.proved_optimal;
        item.scg_runs = scg.runs_executed;
        item.status = scg.status;
    }
    std::sort(item.solution.begin(), item.solution.end());
    UCP_ASSERT(m.is_feasible(item.solution));
    item.solve_seconds = seconds_since(t0);
}

/// Per-instance governor slot: a child byte accountant (sub-cap, parented to
/// the process default) plus a Budget bound to it. Only materialised when
/// the batch is governed at all, so the unaccounted path allocates nothing.
struct ItemGov {
    std::unique_ptr<MemoryBudget> mem;
    std::unique_ptr<Budget> gov;
    std::size_t charged = 0;
};

}  // namespace

BatchSolver::BatchSolver(BatchOptions opt) : opt_(std::move(opt)) {
    UCP_REQUIRE(opt_.scg.governor == nullptr,
                "BatchSolver: per-batch governors are not supported");
}

BatchResult BatchSolver::solve(
    const std::vector<const CoverMatrix*>& batch) const {
    static stats::Counter& c_batches = stats::counter("batch.calls");
    static stats::Counter& c_items = stats::counter("batch.instances");
    const stats::ScopedTimer phase_timer("batch.seconds");
    TRACE_SPAN("batch.solve");
    c_batches.add();
    c_items.add(batch.size());

    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t B = batch.size();
    BatchResult out;
    out.items.resize(B);
    std::vector<cov::ReduceResult> reduced(B);

    // Per-instance memory isolation (when governed at all): each item gets a
    // child accountant under the process one and a Budget bound to it, so an
    // instance that blows its sub-cap degrades alone while its neighbours —
    // and the shared pool — keep working. Determinism holds: budgets are
    // per-instance, never shared across concurrently solved items.
    MemoryBudget* proc = MemoryBudget::process_default();
    const bool governed = proc != nullptr || opt_.mem_budget_per_item != 0;
    std::vector<ItemGov> govs(governed ? B : 0);
    if (governed) {
        for (std::size_t b = 0; b < B; ++b) {
            govs[b].mem = std::make_unique<MemoryBudget>(
                opt_.mem_budget_per_item, proc);
            BudgetOptions bo;
            bo.memory = govs[b].mem.get();
            govs[b].gov = std::make_unique<Budget>(bo);
        }
    }

    const unsigned threads = opt_.num_threads == 0
                                 ? ThreadPool::default_threads()
                                 : static_cast<unsigned>(opt_.num_threads);
    ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(threads, B)));

    {
        TRACE_SPAN("batch.reduce_all");
        pool.parallel_for(B, [&](std::size_t b) {
            reduced[b] = reduce_item(*batch[b], opt_, out.items[b]);
            if (governed) {
                const std::size_t bytes = reduced[b].core.memory_bytes();
                if (govs[b].gov->charge_memory(bytes))
                    govs[b].charged = bytes;
                else
                    out.items[b].status = Status::kResourceExhausted;
            }
        });
    }
    {
        TRACE_SPAN("batch.solve_all");
        pool.parallel_for(B, [&](std::size_t b) {
            solve_item(*batch[b], reduced[b], opt_,
                       governed ? govs[b].gov.get() : nullptr, out.items[b]);
        });
    }
    for (ItemGov& g : govs) g.gov->release_memory(g.charged);

    out.seconds = seconds_since(t0);
    return out;
}

BatchResult BatchSolver::solve(const std::vector<CoverMatrix>& batch) const {
    std::vector<const CoverMatrix*> ptrs;
    ptrs.reserve(batch.size());
    for (const CoverMatrix& m : batch) ptrs.push_back(&m);
    return solve(ptrs);
}

BatchItem BatchSolver::solve_one(const CoverMatrix& m,
                                 const BatchOptions& opt) {
    UCP_REQUIRE(opt.scg.governor == nullptr,
                "BatchSolver: per-batch governors are not supported");
    BatchItem item;
    const cov::ReduceResult red = reduce_item(m, opt, item);
    MemoryBudget* proc = MemoryBudget::process_default();
    if (proc != nullptr || opt.mem_budget_per_item != 0) {
        MemoryBudget mem(opt.mem_budget_per_item, proc);
        BudgetOptions bo;
        bo.memory = &mem;
        Budget gov(bo);
        std::size_t charged = 0;
        if (gov.charge_memory(red.core.memory_bytes()))
            charged = red.core.memory_bytes();
        else
            item.status = Status::kResourceExhausted;
        solve_item(m, red, opt, &gov, item);
        gov.release_memory(charged);
    } else {
        solve_item(m, red, opt, nullptr, item);
    }
    return item;
}

}  // namespace ucp::solver
