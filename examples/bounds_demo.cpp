// Didactic example for §3.4: walks through the four lower-bounding
// techniques on the two separation examples and on a user-sized random
// instance, printing each dual solution so the dominance chain of
// Proposition 1 is visible, not just asserted.
//
//   $ ./bounds_demo [--rows=10] [--cols=14] [--density=0.25] [--seed=3]
//                   [--max-cost=4]
#include <cmath>
#include <iostream>

#include "gen/scp_gen.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "lagrangian/subgradient.hpp"
#include "lp/simplex.hpp"
#include "solver/bnb.hpp"
#include "util/options.hpp"

namespace {

void explain(const std::string& title, const ucp::cov::CoverMatrix& m) {
    std::cout << "--- " << title << " ---\n" << m.to_string();
    std::cout << "costs:";
    for (ucp::cov::Index j = 0; j < m.num_cols(); ++j)
        std::cout << ' ' << m.cost(j);
    std::cout << "\n\n";

    const auto mis = ucp::lagr::mis_lower_bound(m);
    std::cout << "1) independent-set bound: rows {";
    for (const auto i : mis.rows) std::cout << ' ' << i;
    std::cout << " } are pairwise column-disjoint -> LB_MIS = " << mis.bound
              << '\n';

    const auto da = ucp::lagr::dual_ascent(m);
    std::cout << "2) dual ascent: m = (";
    for (const auto v : da.m) std::cout << ' ' << v;
    std::cout << " ) feasible for A'm <= c -> LB_DA = " << da.value << '\n';

    const auto sub = ucp::lagr::subgradient_ascent(m);
    std::cout << "3) Lagrangian (subgradient, " << sub.iterations
              << " iterations): LB_Lagr = " << sub.lb_fractional
              << "  (heuristic incumbent " << sub.best_cost << ")\n";

    const auto lp = ucp::lp::solve_covering_lp(m);
    std::cout << "4) LP relaxation: p = (";
    for (const auto v : lp.x) std::cout << ' ' << v;
    std::cout << " ) -> LB_LR = " << lp.objective << ", raised to "
              << static_cast<long>(std::ceil(lp.objective - 1e-6))
              << " by integrality\n";

    const auto exact = ucp::solver::solve_exact(m);
    std::cout << "integer optimum: " << exact.cost << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
    const ucp::Options opts(argc, argv);
    if (const int rc = opts.check_usage(
            "bounds_demo", {"rows", "cols", "density", "max-cost", "seed"});
        rc >= 0)
        return rc;
    std::cout << "Lower-bound dominance (paper section 3.4, Proposition 1)\n\n";

    explain("Example A: LB_MIS < LB_DA (glue-column matrix)",
            ucp::gen::mis_vs_dual_example());
    explain("Example B: LB_DA < LB_LR, fractional LP (odd cycle, costs 1,2,2)",
            ucp::gen::dual_vs_lp_example());

    ucp::gen::RandomScpOptions g;
    g.rows = static_cast<ucp::cov::Index>(opts.get_int("rows", 10));
    g.cols = static_cast<ucp::cov::Index>(opts.get_int("cols", 14));
    g.density = opts.get_double("density", 0.25);
    g.min_cost = 1;
    g.max_cost = opts.get_int("max-cost", 4);
    g.seed = static_cast<std::uint64_t>(opts.get_int("seed", 3));
    explain("Random instance (--rows/--cols/--seed/--max-cost to vary)",
            ucp::gen::random_scp(g));
    return 0;
}
