// Encodings of logic objects as ZDD families, shared by the implicit prime
// generator and the implicit covering-table phase.
//
// Two encodings are used (matching Coudert's overview [10] and Minato [18]):
//
//  * Literal encoding (for cube sets / prime sets): input variable i maps to
//    two ZDD variables, pos_lit(i) = 2i for the positive literal and
//    neg_lit(i) = 2i+1 for the negative literal. A cube is the set of its
//    literals; the tautology cube is the empty set. The implicit prime
//    generator gives output-selector yₖ the input slot n+k, so a prime's
//    excluded output k is the literal neg_lit(n+k).
//
//  * Minterm encoding (for row sets): one ZDD variable per input variable; a
//    minterm is the set of input variables assigned 1.
//
// Literal values inside specs follow pla::Lit (0 / 1 / don't-care).
#pragma once

#include <cstdint>
#include <vector>

#include "zdd/zdd.hpp"

namespace ucp::zdd {

/// Tri-state literal specification used by the encoders.
enum class LitSpec : std::uint8_t { kZero = 0, kOne = 1, kDontCare = 2 };

[[nodiscard]] constexpr Var pos_lit(std::uint32_t input_var) noexcept {
    return 2 * input_var;
}
[[nodiscard]] constexpr Var neg_lit(std::uint32_t input_var) noexcept {
    return 2 * input_var + 1;
}
/// Inverse mapping: which input variable a literal-encoded ZDD var refers to.
[[nodiscard]] constexpr std::uint32_t lit_input(Var zdd_var) noexcept {
    return zdd_var / 2;
}
[[nodiscard]] constexpr bool lit_is_positive(Var zdd_var) noexcept {
    return (zdd_var % 2) == 0;
}

/// Builds the singleton family containing the literal-set of one cube.
/// `spec[i]` gives the literal of input i; don't-cares contribute no literal.
/// The manager must have at least 2*spec.size() variables.
Zdd cube_as_literal_set(ZddManager& mgr, const std::vector<LitSpec>& spec);

/// Builds the family of all minterms (in minterm encoding over `num_inputs`
/// variables) covered by the cube `spec`. The ZDD has O(#free variables)
/// nodes even though it may represent exponentially many minterms.
Zdd minterms_of_cube(ZddManager& mgr, const std::vector<LitSpec>& spec);

/// Number of literals that would be emitted for `spec` (non-don't-care count).
std::size_t literal_count(const std::vector<LitSpec>& spec);

}  // namespace ucp::zdd
