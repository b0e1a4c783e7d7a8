// perfbench: one benchmark run. Prints one JSON line — the metrics, the
// per-instance answers and human-readable notes — for perfbench/run.py,
// which gates the answers and prints the result line.
//
//   perfbench --workload pla_concurrent --seed 0 --seconds 10 --trace 0
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <string>

#include "bench.hpp"
#include "util/timer.hpp"

namespace {

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int usage(const char* why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\nworkloads:";
    for (const auto& w : perfbench::workload_names()) std::cerr << ' ' << w;
    std::cerr << '\n';
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = perfbench::kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
            const std::string value = argv[++i];
            if (flag == "--workload")
                workload = value;
            else if (flag == "--seed")
                seed = std::stoull(value);
            else if (flag == "--seconds")
                seconds = std::stod(value);
            else if (flag == "--trace")
                trace = std::stoi(value);
            else
                return usage(("unknown flag " + flag).c_str());
        }
    } catch (const std::exception&) {
        return usage("bad flag value");
    }
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end())
        return usage("unknown workload");
    if (!(seconds > 0.0) || (trace != 0 && trace != 1)) return usage("bad flag value");

    // The untraced run times its own set-ups, spread through the run.
    const perfbench::Workload w = perfbench::make_workload(workload, seed);
    std::optional<perfbench::HostProbe> probe;
    if (trace == 0) probe.emplace(w.clients);
    const auto time_setup = [&] {
        const ucp::Timer t;
        const perfbench::Workload again = perfbench::make_workload(workload, seed);
        return t.seconds();
    };
    const perfbench::Report rep =
        probe ? perfbench::run_end_to_end(w, seconds, time_setup, *probe)
              : perfbench::run_traced(w, seconds);

    std::string out = "{\"attempted\": " + std::to_string(rep.attempted) +
                      ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
    for (std::size_t k = 0; k < rep.metrics.size(); ++k) {
        const auto& m = rep.metrics[k];
        out += (k > 0 ? ", " : "") + quoted(m.name) + ": {\"value\": " +
               number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    }
    out += "}, \"instances\": [";
    for (std::size_t i = 0; i < w.instances.size(); ++i) {
        const auto& a = rep.reference[i];
        out += std::string(i > 0 ? ", " : "") + "{\"suite\": " +
               quoted(w.instances[i].suite) + ", \"name\": " +
               quoted(w.instances[i].name) + ", \"ok\": " + (a.ok ? "true" : "false") +
               ", \"cost\": " + std::to_string(a.cost) +
               ", \"lower_bound\": " + std::to_string(a.lower_bound) + "}";
    }
    out += "], \"notes\": [";
    for (std::size_t k = 0; k < rep.notes.size(); ++k)
        out += (k > 0 ? ", " : "") + quoted(rep.notes[k]);
    out += "]}";
    std::cout << out << std::endl;
    return 0;
}
