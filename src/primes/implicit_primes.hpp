// Implicit prime-implicant generation via the Coudert–Madre recursion [12]:
// the function is built as a BDD from its care cover, and the set of prime
// cubes is produced directly as a ZDD in the literal encoding (zdd_cubes.hpp)
// without ever enumerating implicants.
//
//   Primes(0) = ∅,  Primes(1) = {tautology cube}
//   Primes(f) = Primes(f0·f1)
//             ∪ x̄·(Primes(f0) − Primes(f0·f1))
//             ∪ x·(Primes(f1) − Primes(f0·f1))
//
// where f0/f1 are the cofactors on f's top variable x.
//
// A cover with m ≥ 1 outputs is handled through its characteristic function
// χ(x, y) = ∧ₖ (¬yₖ ∨ fₖ(x)), with one output-selector variable yₖ per output
// placed below the inputs (BDD variable n+k). χ is negative unate in every
// yₖ, so no prime of χ holds a positive selector literal, and a prime
// c·∏_{k∉S} ¬yₖ of χ is exactly the multi-output prime (c, S). The one prime
// with S = ∅ (the universal input cube excluding every output) is dropped.
#pragma once

#include "pla/cover.hpp"
#include "zdd/bdd.hpp"
#include "zdd/zdd.hpp"

namespace ucp::primes {

struct ImplicitPrimeResult {
    zdd::Zdd primes;           ///< ZDD over 2(n+m) literal variables
    double prime_count = 0;    ///< |primes|
    std::size_t zdd_nodes = 0; ///< size of the result ZDD
    std::size_t bdd_nodes = 0; ///< size of the function (χ) BDD
};

/// Builds the BDD of an input-only cover (disjunction of its cubes).
zdd::BddId cover_to_bdd(zdd::BddManager& bmgr, const pla::Cover& cover);

/// Primes of the function covered by `care`: the single-output function of an
/// input-only cover (m == 0), or the multi-output primes of a cover with
/// outputs, as the primes of χ. `zmgr` must have at least 2(n+m) variables;
/// `dd` tunes the internal function BDD's manager. The governor of `zmgr`
/// is polled once per recursion step. Each call adds 1 to
/// "primes.implicit_calls" and the BDD and result ZDD sizes to
/// "primes.implicit_bdd_nodes" / "primes.implicit_zdd_nodes".
ImplicitPrimeResult implicit_primes(zdd::ZddManager& zmgr,
                                    const pla::Cover& care,
                                    const zdd::DdOptions& dd = {});

/// Decodes a literal-encoded prime ZDD into a cover over `s`. Literals of
/// inputs 0..n-1 give the input part; a ¬yₖ literal (variable n+k) excludes
/// output k, every other output is asserted. The cubes come out in the
/// ZDD's enumeration order (hi branch first), which on a prime ZDD is the
/// canonical prime order of explicit_primes.hpp: by input ascending with
/// 1 < 0 < −.
pla::Cover primes_zdd_to_cover(const zdd::ZddManager& zmgr, const zdd::Zdd& primes,
                               const pla::CubeSpace& s);

/// Input-only decode: primes_zdd_to_cover(zmgr, primes, {num_inputs, 0}).
pla::Cover primes_zdd_to_cover(const zdd::ZddManager& zmgr, const zdd::Zdd& primes,
                               std::uint32_t num_inputs);

}  // namespace ucp::primes
