#include "util/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace ucp {

Options::Options(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq == std::string::npos) {
                values_[arg.substr(2)] = "true";
            } else {
                values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            }
        } else {
            positional_.push_back(std::move(arg));
        }
    }
}

bool Options::has(const std::string& name) const { return values_.count(name) != 0; }

std::string Options::get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

long Options::get_int(const std::string& name, long fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    long v = 0;
    try {
        v = std::stol(it->second, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != it->second.size())
        throw std::invalid_argument("--" + name + ": want an integer, got '" +
                                    it->second + "'");
    return v;
}

std::size_t Options::get_count(const std::string& name,
                               std::size_t fallback) const {
    if (!has(name)) return fallback;
    const long v = get_int(name, 0);
    if (v < 0)
        throw std::invalid_argument("--" + name +
                                    ": want a non-negative integer, got '" +
                                    get(name) + "'");
    return static_cast<std::size_t>(v);
}

double Options::get_double(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(it->second, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != it->second.size())
        throw std::invalid_argument("--" + name + ": want a number, got '" +
                                    it->second + "'");
    return v;
}

bool Options::get_bool(const std::string& name, bool fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Options::keys() const {
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& [k, _] : values_) out.push_back(k);
    return out;
}

std::vector<std::string> Options::unknown(
    const std::vector<std::string>& accepted) const {
    std::vector<std::string> out;
    for (const auto& [k, _] : values_)
        if (std::find(accepted.begin(), accepted.end(), k) == accepted.end())
            out.push_back(k);
    return out;
}

int Options::check_usage(const std::string& program,
                         std::vector<std::string> accepted,
                         const std::string& synopsis) const {
    if (std::find(accepted.begin(), accepted.end(), "help") == accepted.end())
        accepted.insert(accepted.begin(), "help");
    const std::vector<std::string> bad = unknown(accepted);
    if (bad.empty() && !has("help")) return -1;
    std::ostream& os = bad.empty() ? std::cout : std::cerr;
    for (const auto& k : bad)
        os << program << ": unknown option --" << k << '\n';
    os << "usage: " << program << ' ' << synopsis << "\naccepted options:";
    for (const auto& k : accepted) os << " --" << k;
    os << '\n';
    return bad.empty() ? 0 : 2;
}

}  // namespace ucp
