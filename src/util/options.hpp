// Minimal command-line option parser for examples and benchmark binaries.
//
// Syntax: "--key=value", "--flag" (boolean true) and bare positional arguments.
// Unknown options are kept and can be listed, so binaries can reject typos
// (`unknown` returns the keys outside the set a binary accepts).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace ucp {

class Options {
public:
    Options() = default;
    Options(int argc, const char* const* argv);

    /// True if "--name" or "--name=..." was given.
    [[nodiscard]] bool has(const std::string& name) const;

    [[nodiscard]] std::string get(const std::string& name,
                                  const std::string& fallback = "") const;
    /// The integer value of --name, or `fallback` if absent. A value that
    /// is not a whole integer throws std::invalid_argument naming the flag.
    [[nodiscard]] long get_int(const std::string& name, long fallback) const;
    /// get_int for a count or size: a negative value also throws.
    [[nodiscard]] std::size_t get_count(const std::string& name,
                                        std::size_t fallback) const;
    /// The numeric value of --name, or `fallback` if absent; a value that is
    /// not a number throws std::invalid_argument naming the flag.
    [[nodiscard]] double get_double(const std::string& name, double fallback) const;
    [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }

    /// All option keys that were present on the command line.
    [[nodiscard]] std::vector<std::string> keys() const;

    /// Option keys present on the command line that are not in `accepted`,
    /// in sorted order (empty when every option is known).
    [[nodiscard]] std::vector<std::string> unknown(
        const std::vector<std::string>& accepted) const;

    /// The usage gate a binary runs before any work. With an option outside
    /// `accepted` it names each one on stderr, followed by the usage line
    /// and the accepted list, and returns 2. With --help (always accepted)
    /// it prints the usage line and the list on stdout and returns 0.
    /// Otherwise it prints nothing and returns -1: go on.
    [[nodiscard]] int check_usage(const std::string& program,
                                  std::vector<std::string> accepted,
                                  const std::string& synopsis = "[options]") const;

private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

}  // namespace ucp
