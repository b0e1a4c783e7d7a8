// Multi-output cube algebra in the style of Espresso's cube engine [3].
//
// A cube over n inputs and m outputs has
//   * an input part: per input variable a 2-bit "allowed values" set
//     (bit allow0 / bit allow1; {allow0,allow1} = don't-care, {} = empty), and
//   * an output part: a subset of the m outputs (the cube asserts those
//     outputs on every input minterm it covers).
//
// Bitwise representation: three packed word arrays [allow0 | allow1 | out].
// With this layout, intersection is AND, the supercube is OR and containment
// is the subset test (a & b) == a — exactly Espresso's trick.
//
// Single-output (input-only) covers are the m == 0 case; the unate recursive
// paradigm (tautology / complement, see urp.hpp) operates on those.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ucp::pla {

/// 2-bit literal of one input variable. Bit 0: value 0 allowed; bit 1: value 1
/// allowed.
enum class Lit : std::uint8_t {
    kEmpty = 0,     ///< contradiction — the cube covers nothing
    kZero = 1,      ///< literal x̄ (only 0 allowed)
    kOne = 2,       ///< literal x (only 1 allowed)
    kDontCare = 3,  ///< variable unconstrained
};

[[nodiscard]] char lit_to_char(Lit l) noexcept;
[[nodiscard]] std::optional<Lit> lit_from_char(char c) noexcept;

/// Dimensions shared by all cubes of a cover. Cheap value type.
struct CubeSpace {
    std::uint32_t num_inputs = 0;
    std::uint32_t num_outputs = 0;

    [[nodiscard]] std::uint32_t in_words() const noexcept {
        return (num_inputs + 63) / 64;
    }
    [[nodiscard]] std::uint32_t out_words() const noexcept {
        return (num_outputs + 63) / 64;
    }
    [[nodiscard]] std::uint32_t words() const noexcept {
        return 2 * in_words() + out_words();
    }
    friend bool operator==(const CubeSpace&, const CubeSpace&) = default;
};

class Cube {
public:
    Cube() = default;

    /// The universal cube: every input don't-care, every output asserted.
    static Cube full(const CubeSpace& s);
    /// All inputs don't-care, no outputs asserted (useful as a builder start).
    static Cube full_inputs(const CubeSpace& s);
    /// The cube whose raw word layout (see words()) is the s.words() words
    /// starting at `w`.
    static Cube from_words(const CubeSpace& s, const std::uint64_t* w);
    /// Parses "01-0 10" style text (input part, optional output part).
    static Cube parse(const CubeSpace& s, const std::string& in_part,
                      const std::string& out_part = "");

    // ---- literal access --------------------------------------------------------
    [[nodiscard]] Lit in(const CubeSpace& s, std::uint32_t i) const;
    void set_in(const CubeSpace& s, std::uint32_t i, Lit l);
    [[nodiscard]] bool out(const CubeSpace& s, std::uint32_t k) const;
    void set_out(const CubeSpace& s, std::uint32_t k, bool value);

    // ---- predicates --------------------------------------------------------------
    /// True iff no input part is empty (the cube covers at least one minterm).
    [[nodiscard]] bool inputs_valid(const CubeSpace& s) const;
    /// True iff at least one output is asserted (always true when m == 0).
    [[nodiscard]] bool any_output(const CubeSpace& s) const;
    /// inputs_valid && (m == 0 || any_output)
    [[nodiscard]] bool valid(const CubeSpace& s) const;
    /// Set-containment: every point (minterm, output) of `other` is in *this.
    [[nodiscard]] bool contains(const CubeSpace& s, const Cube& other) const;
    /// Input-part containment only (ignores outputs).
    [[nodiscard]] bool contains_inputs(const CubeSpace& s, const Cube& other) const;
    /// True iff the input parts intersect (share a minterm).
    [[nodiscard]] bool intersects_inputs(const CubeSpace& s, const Cube& other) const;

    // ---- operations --------------------------------------------------------------
    /// Componentwise intersection. The result may be invalid; check valid().
    [[nodiscard]] Cube intersect(const CubeSpace& s, const Cube& other) const;
    /// Smallest cube containing both (componentwise union).
    [[nodiscard]] Cube supercube(const CubeSpace& s, const Cube& other) const;
    /// Number of parts (input vars + the output part) where the intersection
    /// is empty. Distance 0 = the cubes intersect; distance 1 = consensus exists.
    [[nodiscard]] std::uint32_t distance(const CubeSpace& s, const Cube& other) const;
    /// Consensus cube if distance(other) == 1, nullopt otherwise.
    [[nodiscard]] std::optional<Cube> consensus(const CubeSpace& s,
                                                const Cube& other) const;
    /// Output-part consensus at distance 0 (the multi-valued consensus on
    /// the output part): the cube (inputs ∩, outputs ∪). Defined when the
    /// cubes intersect and m > 0 — REQUIRED for completeness of iterated
    /// consensus with ≥ 3 outputs (two cubes with overlapping but
    /// incomparable output sets merge through it). nullopt otherwise.
    [[nodiscard]] std::optional<Cube> output_consensus(const CubeSpace& s,
                                                       const Cube& other) const;

    // ---- metrics -------------------------------------------------------------------
    /// Number of constrained input variables (non-don't-care literals).
    [[nodiscard]] std::uint32_t input_literal_count(const CubeSpace& s) const;
    /// Number of unconstrained input variables.
    [[nodiscard]] std::uint32_t free_input_count(const CubeSpace& s) const;
    /// Number of asserted outputs.
    [[nodiscard]] std::uint32_t output_count(const CubeSpace& s) const;
    /// 2^free_inputs × max(output_count, 1) — points covered.
    [[nodiscard]] double point_count(const CubeSpace& s) const;

    /// Evaluates the input part on a complete assignment (bit i of `assignment`
    /// = value of input i, inputs beyond word 0 in higher vector slots).
    [[nodiscard]] bool covers_assignment(const CubeSpace& s,
                                         const std::vector<std::uint64_t>& assignment)
        const;

    [[nodiscard]] std::string to_string(const CubeSpace& s) const;

    friend bool operator==(const Cube&, const Cube&) = default;
    /// Stable hash for deduplication.
    [[nodiscard]] std::size_t hash() const noexcept;

    /// Raw word access for the URP routines (read-only).
    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
        return w_;
    }

private:
    explicit Cube(std::vector<std::uint64_t> w) : w_(std::move(w)) {}
    static Cube zeroed(const CubeSpace& s) {
        return Cube(std::vector<std::uint64_t>(s.words(), 0));
    }

    // Word-layout helpers.
    [[nodiscard]] std::uint64_t* a0(const CubeSpace&) noexcept { return w_.data(); }
    [[nodiscard]] std::uint64_t* a1(const CubeSpace& s) noexcept {
        return w_.data() + s.in_words();
    }
    [[nodiscard]] std::uint64_t* ow(const CubeSpace& s) noexcept {
        return w_.data() + 2 * s.in_words();
    }
    [[nodiscard]] const std::uint64_t* a0(const CubeSpace&) const noexcept {
        return w_.data();
    }
    [[nodiscard]] const std::uint64_t* a1(const CubeSpace& s) const noexcept {
        return w_.data() + s.in_words();
    }
    [[nodiscard]] const std::uint64_t* ow(const CubeSpace& s) const noexcept {
        return w_.data() + 2 * s.in_words();
    }

    std::vector<std::uint64_t> w_;
};

}  // namespace ucp::pla
