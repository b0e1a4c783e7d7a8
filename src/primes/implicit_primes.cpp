#include "primes/implicit_primes.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/stats.hpp"
#include "util/trace.hpp"
#include "zdd/zdd_cubes.hpp"

namespace ucp::primes {

using zdd::BddId;
using zdd::BddManager;
using zdd::NodeId;
using zdd::Var;
using zdd::Zdd;
using zdd::ZddManager;

namespace {

/// The BDD of the input part of `c` (its outputs are ignored).
BddId cube_to_bdd(BddManager& bmgr, const pla::CubeSpace& s, const pla::Cube& c) {
    // Build the cube AND from the highest variable down so intermediate
    // BDDs stay small.
    BddId cube = bmgr.btrue();
    for (std::uint32_t i = s.num_inputs; i-- > 0;) {
        switch (c.in(s, i)) {
            case pla::Lit::kZero:
                cube = bmgr.and_(bmgr.nvar(i), cube);
                break;
            case pla::Lit::kOne:
                cube = bmgr.and_(bmgr.var(i), cube);
                break;
            case pla::Lit::kDontCare:
                break;
            case pla::Lit::kEmpty:
                return bmgr.bfalse();
        }
    }
    return cube;
}

/// χ(x, y) = ∧ₖ (¬yₖ ∨ fₖ(x)) of a cover with outputs, yₖ = variable n+k.
BddId characteristic_bdd(BddManager& bmgr, const pla::Cover& care) {
    const pla::CubeSpace& s = care.space();
    std::vector<BddId> f(s.num_outputs, bmgr.bfalse());
    for (const auto& c : care) {
        const BddId cube = cube_to_bdd(bmgr, s, c);
        for (std::uint32_t k = 0; k < s.num_outputs; ++k)
            if (c.out(s, k)) f[k] = bmgr.or_(f[k], cube);
    }
    BddId chi = bmgr.btrue();
    for (std::uint32_t k = s.num_outputs; k-- > 0;)
        chi = bmgr.and_(bmgr.or_(bmgr.nvar(s.num_inputs + k), f[k]), chi);
    return chi;
}

class PrimeBuilder {
public:
    PrimeBuilder(BddManager& bmgr, ZddManager& zmgr) : bmgr_(bmgr), zmgr_(zmgr) {}

    NodeId primes(BddId f) {
        if (f == zdd::kBddFalse) return zdd::kEmpty;
        if (f == zdd::kBddTrue) return zdd::kBase;
        const auto it = memo_.find(f);
        if (it != memo_.end()) return it->second;
        if (zmgr_.governor() != nullptr)
            throw_if_error(zmgr_.governor()->check(), "implicit_primes");

        const std::uint32_t v = bmgr_.var_of(f);
        const BddId f0 = bmgr_.lo_of(f);
        const BddId f1 = bmgr_.hi_of(f);
        const BddId fc = bmgr_.and_(f0, f1);

        const NodeId pc = primes(fc);
        const NodeId p0 = primes(f0);
        const NodeId p1 = primes(f1);

        // Primes mentioning x̄ / x are primes of the cofactor that are not
        // implicants (equivalently, not primes) of f0·f1 — the fused
        // p \ (p ∩ pc) pattern, canonical-identical to diff.
        const Zdd pcz = zmgr_.handle(pc);
        const Zdd only0 = zmgr_.diff_intersect(zmgr_.handle(p0), pcz);
        const Zdd only1 = zmgr_.diff_intersect(zmgr_.handle(p1), pcz);

        // Attach the literal variables. All primes of cofactors contain only
        // literals of inputs > v, so direct node construction keeps ordering.
        const Zdd with_neg =
            zmgr_.handle(zmgr_.make(zdd::neg_lit(v), zdd::kEmpty, only0.id()));
        const Zdd lo_h = zmgr_.union_(pcz, with_neg);
        const NodeId r = zmgr_.make(zdd::pos_lit(v), lo_h.id(), only1.id());
        memo_.emplace(f, r);
        roots_.push_back(zmgr_.handle(r));  // pin memoised results across GC
        return r;
    }

private:
    BddManager& bmgr_;
    ZddManager& zmgr_;
    std::unordered_map<BddId, NodeId> memo_;
    std::vector<Zdd> roots_;
};

}  // namespace

zdd::BddId cover_to_bdd(BddManager& bmgr, const pla::Cover& cover) {
    const pla::CubeSpace& s = cover.space();
    UCP_REQUIRE(s.num_outputs == 0, "cover_to_bdd requires an input-only cover");
    UCP_REQUIRE(s.num_inputs <= bmgr.num_vars(), "BDD manager too small");

    BddId f = bmgr.bfalse();
    for (const auto& c : cover) f = bmgr.or_(f, cube_to_bdd(bmgr, s, c));
    return f;
}

ImplicitPrimeResult implicit_primes(ZddManager& zmgr, const pla::Cover& care,
                                    const zdd::DdOptions& dd) {
    TRACE_SPAN("implicit_primes");
    const pla::CubeSpace& s = care.space();
    const std::uint32_t vars = s.num_inputs + s.num_outputs;
    UCP_REQUIRE(2 * vars <= zmgr.num_vars(),
                "ZDD manager needs 2 variables per input and output");

    ImplicitPrimeResult result;
    // Folds the call into the stats registry on scope exit, also when the
    // recursion is abandoned by a throw.
    struct StatsFlush {
        const ImplicitPrimeResult& r;
        ~StatsFlush() {
            stats::counter("primes.implicit_calls").add();
            stats::counter("primes.implicit_bdd_nodes").add(r.bdd_nodes);
            stats::counter("primes.implicit_zdd_nodes").add(r.zdd_nodes);
        }
    } flush{result};

    BddManager bmgr(vars, dd);
    const BddId f = s.num_outputs == 0 ? cover_to_bdd(bmgr, care)
                                       : characteristic_bdd(bmgr, care);
    result.bdd_nodes = bmgr.node_count(f);

    PrimeBuilder builder(bmgr, zmgr);
    Zdd primes = zmgr.handle(builder.primes(f));
    if (s.num_outputs > 0) {
        // Drop the prime ∏ₖ ¬yₖ that asserts no output.
        std::vector<zdd::LitSpec> none(vars, zdd::LitSpec::kZero);
        std::fill_n(none.begin(), s.num_inputs, zdd::LitSpec::kDontCare);
        primes = zmgr.diff(primes, zdd::cube_as_literal_set(zmgr, none));
    }

    result.primes = primes;
    result.prime_count = zmgr.count(primes);
    result.zdd_nodes = zmgr.node_count(primes);
    return result;
}

pla::Cover primes_zdd_to_cover(const ZddManager& zmgr, const Zdd& primes,
                               const pla::CubeSpace& s) {
    const Var first_output = zdd::pos_lit(s.num_inputs);
    pla::Cover out(s);
    zmgr.for_each_set(primes, [&](const std::vector<Var>& lits) {
        pla::Cube c = pla::Cube::full_inputs(s);
        for (std::uint32_t k = 0; k < s.num_outputs; ++k) c.set_out(s, k, true);
        for (const Var l : lits) {
            const std::uint32_t i = zdd::lit_input(l);
            if (l < first_output) {
                c.set_in(s, i, zdd::lit_is_positive(l) ? pla::Lit::kOne
                                                       : pla::Lit::kZero);
            } else {
                UCP_ASSERT(!zdd::lit_is_positive(l) && i - s.num_inputs < s.num_outputs);
                c.set_out(s, i - s.num_inputs, false);
            }
        }
        out.add(std::move(c));
    });
    return out;
}

pla::Cover primes_zdd_to_cover(const ZddManager& zmgr, const Zdd& primes,
                               std::uint32_t num_inputs) {
    return primes_zdd_to_cover(zmgr, primes, pla::CubeSpace{num_inputs, 0});
}

}  // namespace ucp::primes
