// Domain example: binate covering (the generalisation of UCP the paper's
// introduction mentions). Builds a small constraint system where choices
// exclude one another — a toy technology-binding problem — and solves it with
// the exact BCP solver.
//
//   $ ./binate_cover [--rows=20] [--cols=12] [--neg=0.35] [--lits=3]
//                    [--max-cost=3] [--seed=1]
#include <iostream>

#include "bcp/bcp.hpp"
#include "gen/scp_gen.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
    const ucp::Options opts(argc, argv);
    if (const int rc = opts.check_usage(
            "binate_cover",
            {"rows", "cols", "neg", "lits", "max-cost", "seed"});
        rc >= 0)
        return rc;

    std::cout << "Binate covering demo\n\n";
    // A hand-built instance: pick implementations {0,1,2} for block A and
    // {3,4} for block B; x0 and x3 conflict; x2 requires x4.
    //   (x0 ∨ x1 ∨ x2)          — block A implemented
    //   (x3 ∨ x4)               — block B implemented
    //   (¬x0 ∨ ¬x3)             — x0 and x3 conflict
    //   (¬x2 ∨ x4)              — x2 requires x4
    const ucp::bcp::BcpMatrix hand = ucp::bcp::BcpMatrix::from_rows(
        5,
        {{{0, true}, {1, true}, {2, true}},
         {{3, true}, {4, true}},
         {{0, false}, {3, false}},
         {{2, false}, {4, true}}},
        {1, 3, 1, 1, 2});
    const auto hr = ucp::bcp::solve_bcp(hand);
    std::cout << "hand instance: ";
    if (hr.feasible) {
        std::cout << "optimum " << hr.cost << ", choose {";
        for (ucp::cov::Index j = 0; j < 5; ++j)
            if (hr.assignment[j]) std::cout << ' ' << 'x' << j;
        std::cout << " }  (" << hr.nodes << " nodes)\n";
    } else {
        std::cout << "infeasible\n";
    }

    // A random instance, sized by the command line.
    ucp::gen::RandomBcpOptions g;
    g.rows = static_cast<ucp::cov::Index>(opts.get_int("rows", 20));
    g.cols = static_cast<ucp::cov::Index>(opts.get_int("cols", 12));
    g.negative_fraction = opts.get_double("neg", 0.35);
    g.literals_per_row = opts.get_double("lits", 3.0);
    g.max_cost = opts.get_int("max-cost", 3);
    g.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    const auto m = ucp::gen::random_bcp(g);
    std::cout << "\nrandom instance (" << m.num_rows() << " clauses, "
              << m.num_cols() << " variables, seed " << g.seed << "):\n";
    const auto rr = ucp::bcp::solve_bcp(m);
    if (!rr.feasible) {
        std::cout << "  UNSATISFIABLE (proved in " << rr.nodes << " nodes)\n";
    } else {
        std::cout << "  optimum " << rr.cost << "  (lower bound "
                  << rr.lower_bound << ", " << rr.nodes << " nodes, "
                  << rr.seconds << " s)\n  chosen:";
        for (ucp::cov::Index j = 0; j < m.num_cols(); ++j)
            if (rr.assignment[j]) std::cout << " x" << j;
        std::cout << '\n';
    }
    return 0;
}
