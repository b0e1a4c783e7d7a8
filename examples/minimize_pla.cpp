// Domain example: a full two-level minimisation flow for PLA files —
// reads a Berkeley-format PLA (from a file, or a named built-in benchmark
// instance), minimises it with the chosen solver, verifies the result and
// writes the minimised PLA.
//
//   $ ./minimize_pla --instance=bench1 [--solver=scg|exact|greedy]
//   $ ./minimize_pla my_function.pla --out=min.pla --compare-espresso
//   $ ./minimize_pla --instance=ex1010 --deadline-ms=500 --json
//
// The run is governed: --deadline-ms / --zdd-node-budget / --mem-budget-mb
// set the resource budget, and SIGINT (Ctrl-C) requests cooperative
// cancellation — in all cases the best-so-far feasible cover is reported
// with its lower bound and a non-"ok" status instead of the process dying
// mid-solve.
//
// Exit codes: 0 = solved and verified; 1 = result did not verify;
// 2 = usage, unreadable input, or unwritable output (with {"status": ...}
// on stdout in --json mode so automation never has to parse stderr).
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cover/table_builder.hpp"
#include "espresso/espresso.hpp"
#include "gen/suites.hpp"
#include "pla/pla_io.hpp"
#include "solver/batch.hpp"
#include "solver/two_level.hpp"
#include "util/mem_budget.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

ucp::CancelToken g_cancel;

extern "C" void on_sigint(int) { g_cancel.cancel(); }

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') { out += "\\n"; continue; }
        out += c;
    }
    return out;
}

/// Reports a fatal I/O or input error on both channels: the human-readable
/// diagnostic on stderr, and — in --json mode — a status document on stdout
/// so automation never has to parse stderr. Always exit code 2.
int fail(ucp::Status st, const std::string& message, bool json) {
    if (json)
        std::cout << "{\"status\": \"" << ucp::to_string(st)
                  << "\", \"error\": \"" << json_escape(message) << "\"}\n";
    std::cerr << "error: " << message << '\n';
    return 2;
}

void print_json(std::ostream& os, const ucp::solver::TwoLevelResult& r) {
    os << "{\"status\": \"" << ucp::to_string(r.status) << "\""
       << ", \"products\": " << r.cost << ", \"literals\": " << r.literals
       << ", \"lower_bound\": " << r.lower_bound
       << ", \"proved_optimal\": " << (r.proved_optimal ? "true" : "false")
       << ", \"verified\": " << (r.verified ? "true" : "false")
       << ", \"num_primes\": " << r.num_primes
       << ", \"num_rows\": " << r.num_rows
       << ", \"total_seconds\": " << r.total_seconds;
    if (const ucp::MemoryBudget* mb = ucp::MemoryBudget::process_default())
        os << ", \"mem_high_water_bytes\": " << mb->high_water()
           << ", \"mem_denials\": " << mb->denials();
    os << "}\n";
}

/// --batch=name1,name2,... [files...]: build every covering table, then hand
/// the whole batch of matrices to BatchSolver, which runs the reduce-all and
/// solve-all phases in lockstep on the thread pool (--threads=N; 1 = serial,
/// same answers either way). Reports the covering-level result per instance —
/// products, bound, core shape — not the full two-level lift.
int run_batch(const ucp::Options& opts, bool json) {
    std::vector<std::string> names;
    std::vector<ucp::pla::Pla> plas;
    const std::string list = opts.get("batch");
    if (!list.empty() && list != "true") {
        std::size_t pos = 0;
        while (pos <= list.size()) {
            const std::size_t comma = list.find(',', pos);
            const std::size_t end =
                comma == std::string::npos ? list.size() : comma;
            const std::string name = list.substr(pos, end - pos);
            if (!name.empty()) {
                plas.push_back(ucp::gen::instance_by_name(name));
                names.push_back(name);
            }
            if (comma == std::string::npos) break;
            pos = comma + 1;
        }
    }
    for (const auto& f : opts.positional()) {
        ucp::pla::Pla pla;
        ucp::pla::PlaDiagnostic diag;
        if (ucp::pla::parse_pla_file(f, pla, diag) != ucp::Status::kOk)
            return fail(diag.status, diag.to_string(f), json);
        plas.push_back(std::move(pla));
        names.push_back(f);
    }
    if (plas.empty()) {
        std::cerr << "--batch needs instance names (--batch=a,b,...) and/or "
                     "PLA files\n";
        return 2;
    }

    // Implicit phase per instance, then one lockstep explicit phase.
    std::vector<ucp::cover::CoveringTable> tables;
    tables.reserve(plas.size());
    std::vector<const ucp::cov::CoverMatrix*> mats;
    for (const auto& pla : plas) {
        tables.push_back(ucp::cover::build_covering_table(pla));
        mats.push_back(&tables.back().matrix);
    }
    ucp::solver::BatchOptions bopt;
    bopt.num_threads = static_cast<int>(opts.get_int("threads", 1));
    bopt.mem_budget_per_item =
        static_cast<std::size_t>(opts.get_int("mem-budget-item-mb", 0)) << 20;
    const ucp::solver::BatchSolver solver(bopt);
    const auto res = solver.solve(mats);

    if (json) {
        std::cout << "[";
        for (std::size_t i = 0; i < res.items.size(); ++i) {
            const auto& it = res.items[i];
            std::cout << (i ? ",\n " : "\n ") << "{\"instance\": \"" << names[i]
                      << "\", \"products\": " << it.cost
                      << ", \"lower_bound\": " << it.lower_bound
                      << ", \"proved_optimal\": "
                      << (it.proved_optimal ? "true" : "false")
                      << ", \"core_rows\": " << it.core_rows
                      << ", \"core_cols\": " << it.core_cols
                      << ", \"status\": \"" << ucp::to_string(it.status)
                      << "\"}";
        }
        std::cout << "\n]\n";
    } else {
        ucp::TextTable t({"instance", "rows x cols", "products", "LB", "core",
                          "reduce s", "solve s", "status"});
        for (std::size_t i = 0; i < res.items.size(); ++i) {
            const auto& it = res.items[i];
            t.add_row({names[i],
                       std::to_string(mats[i]->num_rows()) + "x" +
                           std::to_string(mats[i]->num_cols()),
                       std::to_string(it.cost) +
                           (it.proved_optimal ? "*" : ""),
                       std::to_string(it.lower_bound),
                       std::to_string(it.core_rows) + "x" +
                           std::to_string(it.core_cols),
                       ucp::TextTable::num(it.reduce_seconds, 4),
                       ucp::TextTable::num(it.solve_seconds, 4),
                       ucp::to_string(it.status)});
        }
        t.print(std::cout);
        std::cout << "batch of " << res.items.size() << " instances in "
                  << ucp::TextTable::num(res.seconds, 4) << " s ("
                  << (bopt.num_threads == 1 ? "serial"
                                            : std::to_string(bopt.num_threads) +
                                                  " threads")
                  << ")\n";
    }
    return 0;
}

/// Every flag minimize_pla reads; anything else is a typo (exit 2).
const std::vector<std::string> kAcceptedFlags{
    "help", "instance", "batch", "threads", "solver", "out",
    "compare-espresso", "json", "deadline-ms", "zdd-node-budget",
    "mem-budget-mb", "mem-budget-item-mb", "bnb-threads", "bnb-min-rows",
    "zdd-cache-entries", "zdd-gc-threshold", "zdd-chain", "trace",
    "trace-level", "trace-format"};

}  // namespace

int main(int argc, char** argv) {
    const ucp::Options opts(argc, argv);
    if (const int rc = opts.check_usage(
            "minimize_pla", kAcceptedFlags,
            "<file.pla> | --instance=<name> | --batch=<a,b,...> [options]");
        rc >= 0) {
        if (rc != 0 && opts.get_bool("json", false)) {
            std::string names;
            for (const auto& k : opts.unknown(kAcceptedFlags))
                names += (names.empty() ? "--" : " --") + k;
            std::cout << "{\"status\": \""
                      << ucp::to_string(ucp::Status::kBadInput)
                      << "\", \"error\": \"unknown option "
                      << json_escape(names) << "\"}\n";
        }
        return rc;
    }
    try {
        // Memory governor: latch the cap into the environment before the
        // first solve so MemoryBudget::process_default() — consulted by every
        // DD manager, solver and BatchSolver in this process — picks it up.
        const long mem_mb = opts.get_int("mem-budget-mb", 0);
        if (mem_mb > 0)
            ::setenv("UCP_MEM_BUDGET", std::to_string(mem_mb).c_str(), 1);
        const bool json = opts.get_bool("json", false);
        if (opts.has("batch")) return run_batch(opts, json);
        ucp::pla::Pla pla;
        if (opts.has("instance")) {
            pla = ucp::gen::instance_by_name(opts.get("instance"));
        } else if (!opts.positional().empty()) {
            ucp::pla::PlaDiagnostic diag;
            if (ucp::pla::parse_pla_file(opts.positional()[0], pla, diag) !=
                ucp::Status::kOk)
                return fail(diag.status, diag.to_string(opts.positional()[0]),
                            json);
        } else {
            std::cerr << "usage: minimize_pla <file.pla> | --instance=<name>\n"
                      << "       minimize_pla --batch=<a,b,...> [files...] "
                         "[--threads=<n>]\n"
                      << "       [--solver=scg|exact|greedy] [--out=<file>]\n"
                      << "       [--compare-espresso] [--json]\n"
                      << "       [--deadline-ms=<n>] [--zdd-node-budget=<n>]\n"
                      << "       [--mem-budget-mb=<n>] "
                         "[--mem-budget-item-mb=<n>]\n"
                      << "       [--bnb-threads=<n>] [--bnb-min-rows=<n>]\n"
                      << "       [--zdd-cache-entries=<n>] "
                         "[--zdd-gc-threshold=<n>] [--zdd-chain=on|off]\n"
                      << "       [--trace=<file>] "
                         "[--trace-level=phase|iter] "
                         "[--trace-format=jsonl|chrome]\n"
                      << "named instances: bench1, ex5, exam, max1024, prom2, "
                         "t1, test4, ex1010, test2, ...\n";
            return 2;
        }

        const auto& s = pla.space();
        if (!json)
            std::cout << "Function: " << pla.name << " — " << s.num_inputs
                      << " inputs, " << s.num_outputs << " outputs, "
                      << pla.on.size() << " on-cubes, " << pla.dc.size()
                      << " dc-cubes\n";

        ucp::solver::TwoLevelOptions tl;
        // ZDD/BDD engine knobs (defaults documented in README).
        tl.table.dd.cache_entries = static_cast<std::size_t>(opts.get_int(
            "zdd-cache-entries", static_cast<long>(tl.table.dd.cache_entries)));
        tl.table.dd.gc_threshold = static_cast<std::size_t>(opts.get_int(
            "zdd-gc-threshold", static_cast<long>(tl.table.dd.gc_threshold)));
        const std::string chain =
            opts.get("zdd-chain", tl.table.dd.chain_nodes ? "on" : "off");
        if (chain == "on" || chain == "off") {
            tl.table.dd.chain_nodes = chain == "on";
        } else {
            std::cerr << "unknown --zdd-chain (want on|off)\n";
            return 2;
        }
        // Resource governor: deadline, DD node budget, SIGINT cancellation.
        tl.budget.deadline_seconds =
            static_cast<double>(opts.get_int("deadline-ms", 0)) / 1000.0;
        tl.budget.zdd_node_budget =
            static_cast<std::size_t>(opts.get_int("zdd-node-budget", 0));
        tl.cancel = &g_cancel;
        std::signal(SIGINT, on_sigint);
        // Tracing (docs/OBSERVABILITY.md): arm before the solve, export after.
        const std::string trace_path = opts.get("trace", "");
        const std::string trace_format = opts.get("trace-format", "jsonl");
        ucp::trace::Level trace_level = ucp::trace::Level::kPhase;
        if (!ucp::trace::parse_level(opts.get("trace-level", "phase"),
                                     trace_level)) {
            std::cerr << "unknown --trace-level (want phase|iter)\n";
            return 2;
        }
        if (trace_format != "jsonl" && trace_format != "chrome") {
            std::cerr << "unknown --trace-format (want jsonl|chrome)\n";
            return 2;
        }
        if (!trace_path.empty()) {
            if (!ucp::trace::compiled_in()) {
                std::cerr << "warning: built with -DUCP_TRACE=OFF; --trace "
                             "will produce an empty trace\n";
            }
            ucp::trace::start(trace_level);
        }
        // Exact-solver knobs: decomposition-parallel search (DESIGN.md §11).
        tl.bnb.num_threads =
            static_cast<int>(opts.get_int("bnb-threads", tl.bnb.num_threads));
        tl.bnb.parallel_min_rows = static_cast<ucp::cov::Index>(opts.get_int(
            "bnb-min-rows", static_cast<long>(tl.bnb.parallel_min_rows)));
        const std::string solver = opts.get("solver", "scg");
        if (solver == "exact")
            tl.cover_solver = ucp::solver::CoverSolver::kExact;
        else if (solver == "greedy")
            tl.cover_solver = ucp::solver::CoverSolver::kGreedy;
        else if (solver != "scg") {
            std::cerr << "unknown solver: " << solver << '\n';
            return 2;
        }

        const auto r = ucp::solver::minimize_two_level(pla, tl);
        if (!trace_path.empty()) {
            ucp::trace::stop();
            std::ofstream tf(trace_path);
            if (!tf) {
                std::cerr << "error: cannot write trace file " << trace_path
                          << '\n';
                return 1;
            }
            if (trace_format == "chrome")
                ucp::trace::write_chrome(tf);
            else
                ucp::trace::write_jsonl(tf);
            if (!json)
                std::cout << "trace written to " << trace_path << " ("
                          << trace_format << ")\n";
        }
        // Write the minimised PLA before reporting: an unwritable --out path
        // must yield the error document and exit 2, not a success report
        // followed by a silently missing file.
        if (opts.has("out")) {
            ucp::pla::Pla out;
            out.name = pla.name + ".min";
            out.on = r.cover;
            out.dc = ucp::pla::Cover(s);
            out.off = ucp::pla::Cover(s);
            std::ofstream f(opts.get("out"));
            if (f) {
                ucp::pla::write_pla(f, out);
                f.flush();
            }
            if (!f)
                return fail(ucp::Status::kIoError,
                            "cannot write output file " + opts.get("out"),
                            json);
        }
        if (json) {
            print_json(std::cout, r);
        } else {
            std::cout << "\nZDD_SCG pipeline (" << solver << "):\n"
                      << "  primes               : " << r.num_primes << '\n'
                      << "  covering rows        : " << r.num_rows
                      << " (signature classes of " << r.onset_minterms
                      << " on-set minterms)\n"
                      << "  products             : " << r.cost
                      << (r.proved_optimal ? "  (proved optimal, LB = "
                                           : "  (LB = ")
                      << r.lower_bound << ")\n"
                      << "  literals             : " << r.literals << '\n'
                      << "  cyclic core time     : " << r.cyclic_core_seconds
                      << " s\n"
                      << "  total time           : " << r.total_seconds
                      << " s\n"
                      << "  status               : " << ucp::to_string(r.status)
                      << '\n'
                      << "  equivalence verified : "
                      << (r.verified ? "yes" : "NO — BUG") << '\n';
            if (r.status != ucp::Status::kOk)
                std::cout << "  (budget trip: best-so-far anytime result)\n";
        }

        if (opts.get_bool("compare-espresso", false)) {
            const auto en = ucp::esp::espresso(pla);
            ucp::esp::EspressoOptions strong;
            strong.strong = true;
            const auto es = ucp::esp::espresso(pla, strong);
            std::cout << "\nEspresso baseline: " << en.cover.size()
                      << " products (normal), " << es.cover.size()
                      << " products (strong)\n";
        }

        if (opts.has("out") && !json)
            std::cout << "\nminimised PLA written to " << opts.get("out")
                      << '\n';
        // A budget trip still exits 0 when the anytime cover verifies — the
        // caller distinguishes complete/truncated runs via the status field.
        return r.verified ? 0 : 1;
    } catch (const std::exception& e) {
        return fail(ucp::status_of(e), e.what(), opts.get_bool("json", false));
    }
}
