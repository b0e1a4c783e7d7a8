// Explicit prime-implicant generation by iterated consensus with absorption
// (Quine [20] / McCluskey [17], in Espresso's multi-output cube algebra).
//
// Starting from any cover of the care function (ON ∪ DC with output parts),
// repeatedly adding consensus cubes and removing absorbed (single-cube
// contained) cubes converges to exactly the set of multi-output prime
// implicants. Worst-case exponential — callers bound it with `max_primes`.
#pragma once

#include <cstddef>

#include "pla/cover.hpp"

namespace ucp {
class Budget;
}

namespace ucp::primes {

struct ConsensusStats {
    std::size_t consensus_attempts = 0;
    std::size_t cubes_added = 0;
    std::size_t cubes_absorbed = 0;
    std::size_t passes = 0;
};

/// Computes all prime implicants of the function covered by `care`
/// (multi-output; for input-only covers pass a cover with m == 0).
/// The primes come out in the canonical prime order, whatever the order of
/// the cubes of `care`: compared input by input ascending with 1 < 0 < −.
/// The order is total on primes: two primes (c, S₁), (c, S₂) sharing an
/// input part would both lie inside the implicant (c, S₁ ∪ S₂). It is the
/// enumeration order of the implicit generator's prime ZDD
/// (implicit_primes.hpp), so both generators yield the same columns.
/// Throws ResourceError(Status::kNodeBudget) — a std::runtime_error — if more
/// than `max_primes` cubes are generated. A non-null `governor` is polled
/// once per frontier cube; its deadline/cancel trips throw ResourceError.
/// Each call adds its ConsensusStats to the "primes.consensus_attempts",
/// "primes.cubes_added" and "primes.cubes_absorbed" stats counters.
pla::Cover primes_by_consensus(const pla::Cover& care,
                               std::size_t max_primes = 2'000'000,
                               ConsensusStats* stats = nullptr,
                               Budget* governor = nullptr);

/// The classical Quine–McCluskey tabular method [17]: expand the care
/// function to minterms, group by the number of asserted inputs, and merge
/// adjacent groups level by level; unmerged cubes are the primes. Exact for
/// single-output functions with up to ~20 inputs (minterm expansion!);
/// implemented as an independently-derived oracle for the consensus and
/// implicit generators. Requires an input-only cover (m == 0).
pla::Cover primes_by_tabular(const pla::Cover& care,
                             std::size_t max_minterms = 1u << 20);

}  // namespace ucp::primes
