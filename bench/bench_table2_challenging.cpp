// Reproduces Table 2: ZDD_SCG vs Espresso (normal + strong) on the
// *challenging* problems. Expected shape: many instances are proved optimal
// (stars); ZDD_SCG never loses to Espresso on quality; on the large
// random-logic rows (ex1010/test2/test3/pdc) the gap is substantial.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using ucp::TextTable;
    ucp::bench::JsonReporter json(argc, argv, "table2_challenging",
                                  {"no-espresso"});
    ucp::bench::print_header(
        "Table 2 — challenging problems",
        "Paper: 11 of 16 instances proved optimal; big wins on ex1010\n"
        "(239 vs 284/262), pdc (96 vs 145/119), test2 (865 vs 1103/946),\n"
        "test3 (436 vs 541/489).");

    // --threads / --starts drive the parallel multi-start SCG; the espresso
    // baselines can be skipped with --no-espresso for speedup measurements.
    ucp::solver::TwoLevelOptions opt;
    opt.scg.num_starts = json.starts();
    opt.scg.num_threads = json.threads();
    const bool run_espresso = !ucp::Options(argc, argv).has("no-espresso");

    TextTable table({"Name", "Sol", "CC(s)", "T(s)", "M", "Espr.Sol",
                     "Espr.T(s)", "Strong.Sol", "Strong.T(s)"});
    long total_scg = 0, total_esp = 0, total_strong = 0;
    int proved = 0, wins = 0, ties = 0, losses = 0;
    for (const auto& entry : ucp::gen::challenging_suite()) {
        const auto row = ucp::bench::run_pipeline(entry, run_espresso, opt);
        json.record(row.name, static_cast<double>(row.scg.cost),
                    row.scg.total_seconds * 1e3,
                    {{"cc_ms", row.scg.cyclic_core_seconds * 1e3},
                     {"proved_optimal", row.scg.proved_optimal ? 1.0 : 0.0}},
                    {{"status", ucp::to_string(row.scg.status)}});
        total_scg += row.scg.cost;
        total_esp += static_cast<long>(row.espresso_sol);
        total_strong += static_cast<long>(row.strong_sol);
        proved += row.scg.proved_optimal ? 1 : 0;
        const auto best_esp =
            std::min<long>(static_cast<long>(row.espresso_sol),
                           static_cast<long>(row.strong_sol));
        if (row.scg.cost < best_esp) ++wins;
        else if (row.scg.cost == best_esp) ++ties;
        else ++losses;
        table.add_row({row.name,
                       ucp::bench::starred(row.scg.cost, row.scg.proved_optimal),
                       TextTable::num(row.scg.cyclic_core_seconds),
                       TextTable::num(row.scg.total_seconds),
                       TextTable::num(row.rss_mb, 0),
                       std::to_string(row.espresso_sol),
                       TextTable::num(row.espresso_seconds),
                       std::to_string(row.strong_sol),
                       TextTable::num(row.strong_seconds)});
    }
    table.print(std::cout);
    std::cout << "\nTotals: ZDD_SCG " << total_scg << "  Espresso " << total_esp
              << "  Espresso-strong " << total_strong << '\n';
    std::cout << "Proved optimal: " << proved << " of 16 (paper: 11 of 16)\n";
    std::cout << "ZDD_SCG vs best Espresso mode: " << wins << " wins, " << ties
              << " ties, " << losses << " losses\n";
    std::cout << "\nPaper's Table 2 for reference:\n";
    TextTable paper({"Name", "Sol", "CC(s)", "T(s)", "M", "Espr.Sol",
                     "Espr.T(s)", "Strong.Sol", "Strong.T(s)"});
    paper.add_row({"ex1010", "239", "146", "1501", "23", "284", "9.25", "262", "16.83"});
    paper.add_row({"ex4", "279*", "10.38", "10.38", "13", "279", "3.79", "279", "4.22"});
    paper.add_row({"ibm", "173*", "43.56", "43.56", "48", "173", "0.28", "173", "0.31"});
    paper.add_row({"jbp", "122*", "74.56", "74.58", "15", "122", "0.98", "122", "1.11"});
    paper.add_row({"misg", "69*", "0.60", "0.60", "9", "69", "0.11", "69", "0.17"});
    paper.add_row({"mish", "82*", "0.76", "0.76", "9", "82", "0.19", "82", "0.25"});
    paper.add_row({"misj", "35*", "0.16", "0.16", "9", "35", "0.02", "35", "0.04"});
    paper.add_row({"pdc", "96", "72.56", "77.54", "51", "145", "12.61", "119", "15.46"});
    paper.add_row({"shift", "100*", "73.16", "73.16", "51", "100", "0.04", "100", "0.04"});
    paper.add_row({"soar.pla", "352", "4294", "4333", "158", "353", "8.84", "352", "11.16"});
    paper.add_row({"test2", "865", "19105", "108058", "414", "1103", "128.7", "946", "356.2"});
    paper.add_row({"test3", "436", "7978", "16145", "218", "541", "70.73", "489", "129.6"});
    paper.add_row({"ti", "213*", "955", "954.88", "88", "213", "3.28", "213", "3.37"});
    paper.add_row({"ts10", "128*", "1.11", "1.11", "10", "128", "0.05", "128", "0.06"});
    paper.add_row({"x2dn", "104*", "10.24", "10.24", "13", "104", "0.54", "104", "0.63"});
    paper.add_row({"xparc", "254*", "297", "297.31", "89", "254", "6.11", "254", "6.26"});
    paper.print(std::cout);
    return 0;
}
