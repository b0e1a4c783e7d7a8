// Domain example: pure unate / set covering, independent of logic
// minimisation — reads a covering matrix (text format, see
// matrix/sparse_matrix.hpp) or generates a random one, then runs the SCG
// heuristic next to the greedy baseline and the exact solver, reporting all
// four lower bounds of §3.4.
//
//   $ ./set_cover --rows=80 --cols=160 --density=0.05 --seed=7 --max-cost=5
//   $ ./set_cover problem.scp
#include <fstream>
#include <iostream>

#include "gen/scp_gen.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "lp/simplex.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "solver/scg.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
    const ucp::Options opts(argc, argv);
    if (const int rc = opts.check_usage(
            "set_cover",
            {"rows", "cols", "density", "max-cost", "seed", "verbose",
             "skip-exact", "exact-limit"},
            "[options] [problem.scp]");
        rc >= 0)
        return rc;
    try {
        ucp::cov::CoverMatrix m;
        if (!opts.positional().empty()) {
            std::ifstream f(opts.positional()[0]);
            if (!f) {
                std::cerr << "cannot open " << opts.positional()[0] << '\n';
                return 2;
            }
            m = ucp::cov::read_matrix(f);
        } else {
            ucp::gen::RandomScpOptions g;
            g.rows = static_cast<ucp::cov::Index>(opts.get_int("rows", 60));
            g.cols = static_cast<ucp::cov::Index>(opts.get_int("cols", 120));
            g.density = opts.get_double("density", 0.06);
            g.min_cost = 1;
            g.max_cost = opts.get_int("max-cost", 1);
            g.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
            m = ucp::gen::random_scp(g);
            std::cout << "generated random covering problem (seed " << g.seed
                      << ")\n";
        }
        std::cout << "matrix: " << m.num_rows() << " rows x " << m.num_cols()
                  << " cols, density "
                  << ucp::TextTable::num(100 * m.density(), 1) << "%\n\n";

        // Lower bounds (§3.4 chain).
        const auto mis = ucp::lagr::mis_lower_bound(m);
        const auto da = ucp::lagr::dual_ascent(m);
        std::cout << "lower bounds:\n"
                  << "  independent set : " << mis.bound << '\n'
                  << "  dual ascent     : " << da.value << '\n';
        if (m.num_rows() <= 200 && m.num_cols() <= 300) {
            const auto lp = ucp::lp::solve_covering_lp(m);
            if (lp.status == ucp::lp::LpStatus::kOptimal)
                std::cout << "  LP relaxation   : " << lp.objective << '\n';
        }

        // Solvers.
        {
            ucp::Timer t;
            const auto g = ucp::solver::chvatal_greedy(m);
            std::cout << "\ngreedy (Chvatal) : cost " << g.cost << "  ["
                      << ucp::TextTable::num(t.seconds(), 3) << " s]\n";
        }
        {
            ucp::Timer t;
            ucp::solver::ScgOptions so;
            so.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
            if (opts.get_bool("verbose", false)) so.log = &std::cerr;
            const auto r = ucp::solver::solve_scg(m, so);
            std::cout << "SCG (paper)      : cost " << r.cost << "  (LB "
                      << r.lower_bound << (r.proved_optimal ? ", optimal" : "")
                      << ")  [" << ucp::TextTable::num(t.seconds(), 3)
                      << " s, " << r.subgradient_calls
                      << " subgradient phases + " << r.replayed_steps
                      << " replayed, best found in run "
                      << r.run_of_best << "]\n";
        }
        if (!opts.get_bool("skip-exact", false)) {
            ucp::solver::BnbOptions bo;
            bo.time_limit_seconds = opts.get_double("exact-limit", 30.0);
            const auto e = ucp::solver::solve_exact(m, bo);
            std::cout << "exact (B&B)      : cost " << e.cost
                      << (e.optimal ? " (optimal)" : " (time limit hit)")
                      << "  [" << ucp::TextTable::num(e.seconds, 3) << " s, "
                      << e.nodes << " nodes]\n";
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
