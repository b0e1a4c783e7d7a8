// Quickstart: minimise a small PLA with the ZDD_SCG pipeline and print the
// result next to the Espresso-style baseline.
//
//   $ ./quickstart [--solver=scg|exact|greedy]
#include <iostream>

#include "espresso/espresso.hpp"
#include "pla/pla_io.hpp"
#include "solver/two_level.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
    const ucp::Options opts(argc, argv);
    if (const int rc = opts.check_usage("quickstart", {"solver"}); rc >= 0)
        return rc;

    // A 4-input, 1-output function with don't-cares (PLA text, Berkeley
    // format). Swap in read_pla_file(path) to minimise your own.
    const std::string pla_text = R"(.i 4
.o 1
.type fd
0000 1
0001 1
0011 1
0111 1
1111 1
1000 1
1100 1
010- -
.e
)";
    const ucp::pla::Pla pla = ucp::pla::read_pla_string(pla_text, "quickstart");
    std::cout << "Input: " << pla.on.size() << " on-cubes, " << pla.dc.size()
              << " dc-cubes over " << pla.space().num_inputs << " inputs\n\n";

    ucp::solver::TwoLevelOptions tl;
    const std::string solver = opts.get("solver", "scg");
    if (solver == "exact")
        tl.cover_solver = ucp::solver::CoverSolver::kExact;
    else if (solver == "greedy")
        tl.cover_solver = ucp::solver::CoverSolver::kGreedy;

    const auto result = ucp::solver::minimize_two_level(pla, tl);
    std::cout << "ZDD_SCG (" << solver << "): " << result.cost << " products, "
              << result.literals << " literals"
              << (result.proved_optimal ? " (proved optimal)" : "")
              << (result.verified ? ", equivalence verified" : "") << "\n";
    std::cout << result.cover.to_string() << "\n";

    const auto esp = ucp::esp::espresso(pla);
    std::cout << "Espresso baseline: " << esp.cover.size() << " products, "
              << esp.cover.literal_count() << " literals\n";
    return 0;
}
