#include "zdd/zdd_cubes.hpp"

namespace ucp::zdd {

Zdd cube_as_literal_set(ZddManager& mgr, const std::vector<LitSpec>& spec) {
    UCP_REQUIRE(2 * spec.size() <= mgr.num_vars(),
                "manager too small for literal encoding");
    // Build bottom-up from the highest input variable so parents see ordered
    // children.
    NodeId cur = kBase;
    for (std::size_t idx = spec.size(); idx-- > 0;) {
        const auto i = static_cast<std::uint32_t>(idx);
        switch (spec[idx]) {
            case LitSpec::kZero:
                cur = mgr.make(neg_lit(i), kEmpty, cur);
                break;
            case LitSpec::kOne:
                cur = mgr.make(pos_lit(i), kEmpty, cur);
                break;
            case LitSpec::kDontCare:
                break;
        }
    }
    return mgr.handle(cur);
}

Zdd minterms_of_cube(ZddManager& mgr, const std::vector<LitSpec>& spec) {
    UCP_REQUIRE(spec.size() <= mgr.num_vars(),
                "manager too small for minterm encoding");
    NodeId cur = kBase;
    for (std::size_t idx = spec.size(); idx-- > 0;) {
        const auto i = static_cast<std::uint32_t>(idx);
        switch (spec[idx]) {
            case LitSpec::kZero:
                // variable absent from the set — nothing to add
                break;
            case LitSpec::kOne:
                cur = mgr.make(i, kEmpty, cur);
                break;
            case LitSpec::kDontCare:
                cur = mgr.make(i, cur, cur);
                break;
        }
    }
    return mgr.handle(cur);
}

std::size_t literal_count(const std::vector<LitSpec>& spec) {
    std::size_t n = 0;
    for (const LitSpec s : spec)
        if (s != LitSpec::kDontCare) ++n;
    return n;
}

}  // namespace ucp::zdd
