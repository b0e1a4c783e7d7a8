// Percentiles, failure tallies and the two runs (end-to-end and traced).
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, int pct) {
    if (v.empty()) return 0.0;
    const std::size_t rank = (static_cast<std::size_t>(pct) * v.size() + 99) / 100;
    const std::size_t k = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

std::size_t samples_beyond(std::size_t n, int pct) {
    return n - (static_cast<std::size_t>(pct) * n + 99) / 100;
}

std::size_t min_solves_for(int pct, std::size_t beyond) {
    std::size_t n = beyond;
    while (samples_beyond(n, pct) < beyond) ++n;
    return n;
}

Tally tally(const std::vector<Sample>& samples, const std::vector<Answer>& answers,
            std::size_t n) {
    Tally t;
    t.reference.resize(n);
    std::vector<char> seen(n, 0);
    for (std::size_t k = 0; k < samples.size(); ++k) {
        const std::size_t i = samples[k].instance;
        if (seen[i] == 0) {
            seen[i] = 1;
            t.reference[i] = answers[k];
        }
        if (!answers[k].ok || !answers[k].same(t.reference[i])) ++t.failed;
    }
    return t;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

HostProbe::HostProbe(int threads)
    : cycles_(static_cast<std::size_t>(std::max(threads, 1))), at_(cycles_.size(), 0) {
    constexpr std::uint32_t kEntries = 8u << 20;  // 32 MB of uint32
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& c : cycles_) {
        // Sattolo's shuffle of the identity: one cycle through every entry.
        c.resize(kEntries);
        for (std::uint32_t i = 0; i < kEntries; ++i) c[i] = i;
        for (std::uint32_t i = kEntries - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(c[i], c[x % i]);
        }
    }
}

double HostProbe::run() {
    constexpr int kLoads = 800'000;
    std::vector<double> ms(cycles_.size(), 0.0);
    const auto chase = [&](std::size_t t) {
        const std::uint32_t* c = cycles_[t].data();
        std::uint32_t j = at_[t];
        const ucp::Timer clock;
        for (int k = 0; k < kLoads; ++k) j = c[j];
        ms[t] = clock.milliseconds();
        at_[t] = j;
    };
    {
        std::vector<std::jthread> threads;
        for (std::size_t t = 1; t < cycles_.size(); ++t) threads.emplace_back(chase, t);
        chase(0);
    }
    double sum = 0.0;
    for (const double v : ms) sum += v;
    return sum / static_cast<double>(ms.size());
}

std::size_t HostProbe::bytes() const {
    std::size_t b = 0;
    for (const auto& c : cycles_) b += c.size() * sizeof(std::uint32_t);
    return b;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Appends run `l` to `into` as its next passes.
template <class R>
void append(Loop<R>& into, Loop<R>&& l) {
    const std::size_t base = into.samples.size();
    for (Sample s : l.samples) {
        s.item += base;
        into.samples.push_back(s);
    }
    for (auto& r : l.results) into.results.push_back(std::move(r));
    into.passes += l.passes;
    into.wall_s += l.wall_s;
}

/// One line per failing instance (its first error), at most a handful.
void note_errors(Report& rep, const Workload& w, const std::vector<Sample>& samples,
                 const std::vector<const Answer*>& answers,
                 const std::vector<Answer>& reference, const char* what) {
    std::vector<char> noted(w.instances.size(), 0);
    int lines = 0;
    for (std::size_t k = 0; k < samples.size() && lines < 8; ++k) {
        const std::size_t i = samples[k].instance;
        const Answer& a = *answers[k];
        const Answer& r = reference[i];
        std::string why = a.error;
        if (why.empty() && !a.same(r)) why = "answer differs from its first solve";
        if (why.empty() && (a.primes != r.primes || a.rows != r.rows))
            why = "prime or row count differs from the whole call";
        if (why.empty() || noted[i] != 0) continue;
        noted[i] = 1;
        ++lines;
        rep.notes.push_back(std::string(what) + " " + w.instances[i].name + ": " + why);
    }
}

}  // namespace

Report run_end_to_end(const Workload& w, double seconds,
                      const std::function<double()>& time_setup, HostProbe& probe) {
    const std::size_t n = w.instances.size();
    const auto solve = [&](std::size_t i) { return solve_whole(w, w.instances[i]); };
    // One untimed pass first, so the timed window starts with warm caches
    // and allocator; its answers are checked like the rest.
    Loop<Answer> checked = closed_loop(n, w.clients, 0.0, n, solve);

    // Segments of whole passes with a probe run before the first and after
    // each; the run's times are scaled by the median probe. Set-ups are
    // timed beside each probe, so they too sample the whole run. They run
    // one per client at once and each sample is their mean: one thread
    // alone sees one core, whose speed flips between two levels about 1.6x
    // apart within a second, and a median of such samples jumps between
    // the levels (perfbench/RESULTS.md).
    constexpr double kSegmentS = 3.0;
    constexpr std::size_t kSetupsPerProbe = 15;
    std::vector<double> ms;
    std::vector<double> probes;
    std::vector<double> setups;
    const auto clients = static_cast<std::size_t>(w.clients);
    const auto sample_host = [&] {
        probes.push_back(probe.run());
        std::vector<double> s(clients * kSetupsPerProbe, 0.0);
        const auto time_setups = [&](std::size_t c) {
            for (std::size_t k = 0; k < kSetupsPerProbe; ++k)
                s[c * kSetupsPerProbe + k] = time_setup();
        };
        {
            std::vector<std::jthread> threads;
            for (std::size_t c = 1; c < clients; ++c) threads.emplace_back(time_setups, c);
            time_setups(0);
        }
        for (std::size_t k = 0; k < kSetupsPerProbe; ++k) {
            double sum = 0.0;
            for (std::size_t c = 0; c < clients; ++c) sum += s[c * kSetupsPerProbe + k];
            setups.push_back(sum / static_cast<double>(clients));
        }
    };
    sample_host();
    double wall_s = 0.0;
    std::size_t passes = 0;
    const ucp::Timer clock;
    do {
        auto seg = closed_loop(n, w.clients, kSegmentS, n, solve);
        sample_host();
        for (const auto& s : seg.samples) ms.push_back(s.ms);
        wall_s += seg.wall_s;
        passes += seg.passes;
        append(checked, std::move(seg));
    } while (clock.seconds() < seconds || ms.size() < min_solves_for(90, 10));
    const double f = HostProbe::kProbeRefMs / percentile(probes, 50);
    const double setup_s = percentile(setups, 50);
    const Tally t = tally(checked.samples, checked.results, n);

    Report rep;
    rep.attempted = checked.samples.size();
    rep.failed = t.failed;
    rep.reference = t.reference;
    double cost = 0.0;
    double lb = 0.0;
    for (const auto& a : t.reference) {
        cost += static_cast<double>(a.cost);
        lb += static_cast<double>(a.lower_bound);
    }
    // Throughput over the clients' busy time: at each segment's end the
    // clients that finished wait for the last solve, and that idle drain,
    // which depends on where the long instances fall, is left out.
    const double timed = static_cast<double>(ms.size());
    double busy_s = 0.0;
    for (const double v : ms) busy_s += v / 1000.0;
    busy_s /= static_cast<double>(clients);
    const double probe_mb = static_cast<double>(probe.bytes()) / (1024.0 * 1024.0);
    rep.metrics = {
        {"setup_s", setup_s * f, "s"},
        {"throughput_per_s", ratio(timed, busy_s * f), "solves/s"},
        {"solve_ms_p50", percentile(ms, 50) * f, "ms"},
        {"solve_ms_p90", percentile(ms, 90) * f, "ms"},
        {"cover_cost", cost, "cost"},
        {"cost_over_lb", ratio(cost, lb), "ratio"},
        // The probe's cycles are resident from before set-up to exit.
        {"peak_rss_mb", peak_rss_mb() - probe_mb, "MB"},
    };

    std::vector<const Answer*> answers;
    for (const auto& a : checked.results) answers.push_back(&a);
    note_errors(rep, w, checked.samples, answers, t.reference, "failed");
    std::ostringstream os;
    os << rep.attempted << " solves = 1 warm-up + " << passes << " timed passes x " << n
       << " instances, " << w.clients << " client(s), " << wall_s
       << " s timed (" << ratio(timed, wall_s) << " solves per wall second)"
       << "; solve_ms p50/p90 over " << ms.size() << " samples, "
       << samples_beyond(ms.size(), 90) << " beyond p90; failed_frac "
       << ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted));
    rep.notes.push_back(os.str());
    std::ostringstream fs;
    fs << "unscaled: throughput_per_s " << ratio(timed, busy_s) << " solve_ms_p50 "
       << percentile(ms, 50) << " solve_ms_p90 " << percentile(ms, 90) << " setup_s "
       << setup_s
       << "; host-speed scale " << f << " from probes (ms):";
    for (const double p : probes) fs << ' ' << p;
    rep.notes.push_back(fs.str());
    return rep;
}

Report run_traced(const Workload& w, double seconds) {
    const std::size_t n = w.instances.size();
    const bool concurrent = w.clients > 1;
    const auto traced_solve = [&](bool count) {
        return [&w, count](std::size_t i) { return solve_traced(w, w.instances[i], count); };
    };

    // Counts are exact only without concurrent callers: under several
    // clients they come from one serial pass, which is also the base of the
    // per-layer inflation.
    // The serial pass counts against `seconds`.
    const ucp::Timer clock;
    std::optional<Loop<Traced>> serial;
    if (concurrent) serial = closed_loop(n, 1, 0.0, n, traced_solve(true));
    // Untraced and traced passes alternate, so a drift in machine speed
    // moves both sides of the overhead and coverage ratios alike.
    Loop<Answer> whole;
    Loop<Traced> traced;
    do {
        append(whole, closed_loop(n, w.clients, 0.0, n, [&](std::size_t i) {
                   return solve_whole(w, w.instances[i]);
               }));
        append(traced, closed_loop(n, w.clients, 0.0, n, traced_solve(!concurrent)));
    } while (clock.seconds() < seconds);
    const Tally ref = tally(whole.samples, whole.results, n);
    const Loop<Traced>& counted = concurrent ? *serial : traced;

    Report rep;
    rep.reference = ref.reference;
    rep.attempted = whole.samples.size();
    rep.failed = ref.failed;
    std::size_t composed_ok = 0;
    const auto fidelity = [&](const Loop<Traced>& l) {
        std::vector<const Answer*> answers;
        for (const auto& t : l.results) answers.push_back(&t.answer);
        for (std::size_t k = 0; k < l.samples.size(); ++k) {
            const Answer& a = *answers[k];
            const Answer& r = ref.reference[l.samples[k].instance];
            ++rep.attempted;
            if (a.ok && a.same(r) && a.primes == r.primes && a.rows == r.rows)
                ++composed_ok;
            else
                ++rep.failed;
        }
        note_errors(rep, w, l.samples, answers, ref.reference, "traced");
    };
    if (serial) fidelity(*serial);
    fidelity(traced);

    const auto per_pass = [](const Loop<Traced>& l, Span s) {
        double sum = 0.0;
        for (const auto& t : l.results) sum += t.ms[s];
        return ratio(sum, static_cast<double>(l.passes));
    };
    double top = 0.0;
    for (std::size_t s = 0; s < kNumSpans; ++s) {
        const auto span = static_cast<Span>(s);
        const double v = per_pass(traced, span);
        rep.metrics.push_back({kSpanNames[s], v, "ms"});
        if (is_top_level(span, w.pla)) top += v;
    }
    rep.metrics.push_back(
        {"search.polish_ms",
         w.pla ? 0.0 : per_pass(traced, kPortfolio) - per_pass(traced, kScg), "ms"});
    for (std::size_t s = 0; s < kNumSpans; ++s) {
        std::string name = kSpanNames[s];
        name = name.substr(0, name.size() - 3) + ".inflation";
        const double v = concurrent ? ratio(per_pass(traced, static_cast<Span>(s)),
                                            per_pass(*serial, static_cast<Span>(s)))
                                    : 1.0;
        rep.metrics.push_back({name, v, "ratio"});
    }

    std::map<std::string, double> c;
    for (const auto& t : counted.results)
        for (const auto& [k, v] : t.counts) c[k] += v;
    for (auto& [k, v] : c) v /= static_cast<double>(counted.passes);
    const double zdd_probes = c["zdd.cache_hits"] + c["zdd.cache_misses"];
    const double bdd_probes = c["bdd.cache_hits"] + c["bdd.cache_misses"];
    const std::vector<Metric> counts = {
        {"primes.count", c["primes.count"], "count"},
        {"cover.rows", c["cover.rows"], "count"},
        {"cover.onset_minterms", c["cover.onset_minterms"], "count"},
        {"zdd.cache_probes", zdd_probes, "count"},
        {"zdd.cache_hit_ratio", ratio(c["zdd.cache_hits"], zdd_probes), "ratio"},
        {"zdd.gc_runs", c["zdd.gc_runs"], "count"},
        {"zdd.chain_hits", c["zdd.chain_hits"], "count"},
        {"bdd.cache_hit_ratio", ratio(c["bdd.cache_hits"], bdd_probes), "ratio"},
        {"matrix.core_rows", c["matrix.core_rows"], "count"},
        {"matrix.core_cols", c["matrix.core_cols"], "count"},
        {"reduce.passes", c["reduce.passes"], "count"},
        {"subgradient.iterations", c["subgradient.iterations"], "count"},
        {"scg.subgradient_calls", c["scg.subgradient_calls"], "count"},
        {"rwls.steps", c["rwls.steps"], "count"},
        {"rwls.improvements_per_kstep",
         1000.0 * ratio(c["rwls.improvements"], c["rwls.steps"]), "1/kstep"},
        {"portfolio.polish_wins", c["portfolio.polish_wins"], "count"},
        {"kernels.subset_tests", c["kernels.subset_tests"], "count"},
        {"kernels.argmin_scans", c["kernels.argmin_scans"], "count"},
    };
    rep.metrics.insert(rep.metrics.end(), counts.begin(), counts.end());

    double whole_ms = 0.0;
    for (const auto& s : whole.samples) whole_ms += s.ms;
    whole_ms = ratio(whole_ms, static_cast<double>(whole.passes));
    const double untraced_tput =
        ratio(static_cast<double>(whole.samples.size()), whole.wall_s);
    const double traced_tput =
        ratio(static_cast<double>(traced.samples.size()), traced.wall_s);
    rep.metrics.push_back({"trace.overhead_ratio", ratio(untraced_tput, traced_tput), "ratio"});
    rep.metrics.push_back({"trace.span_coverage", ratio(top, whole_ms), "ratio"});

    std::ostringstream os;
    os << "traced: " << traced.passes << " passes (" << w.clients
       << " client(s)) against " << whole.passes << " untraced; throughput "
       << traced_tput << " vs " << untraced_tput << " solves/s; composed == whole on "
       << composed_ok << " of " << (rep.attempted - whole.samples.size())
       << " traced solves";
    rep.notes.push_back(os.str());
    return rep;
}

}  // namespace perfbench
