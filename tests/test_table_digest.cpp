// Pinned digest of every covering table the benchmark suites build: the
// CSR rows, the CSC column lists, the column costs, the essential count and
// the onset minterm count of all 72 suite PLAs, under both product cost
// models. Any change to the table-build layer that moves a row, reorders a
// column list or alters a cost shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <cstdint>

#include "cover/table_builder.hpp"
#include "gen/suites.hpp"

namespace {

using ucp::cov::Index;
using ucp::cover::CostModel;
using ucp::cover::CoveringTable;
using ucp::cover::TableBuildOptions;

/// FNV-1a over 64-bit words.
struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

void add_table(Digest& d, const CoveringTable& t) {
    const auto& m = t.matrix;
    d.add(m.num_rows());
    d.add(m.num_cols());
    for (Index i = 0; i < m.num_rows(); ++i) {
        d.add(m.row(i).size());
        for (const Index j : m.row(i)) d.add(j);
    }
    for (Index j = 0; j < m.num_cols(); ++j) {
        d.add(m.col(j).size());
        for (const Index i : m.col(j)) d.add(i);
        d.add(static_cast<std::uint64_t>(m.cost(j)));
    }
    d.add(t.num_essential_primes);
    d.add(static_cast<std::uint64_t>(t.onset_minterms));
}

std::uint64_t suite_digest(CostModel model) {
    TableBuildOptions opt;
    opt.cost_model = model;
    Digest d;
    std::size_t tables = 0;
    for (const auto& suite : {ucp::gen::easy_cyclic_suite(),
                              ucp::gen::difficult_cyclic_suite(),
                              ucp::gen::challenging_suite()})
        for (const auto& e : suite) {
            add_table(d, ucp::cover::build_covering_table(e.pla, opt));
            ++tables;
        }
    EXPECT_EQ(tables, 72u);
    return d.h;
}

TEST(TableDigest, SuiteTablesUnderProducts) {
    EXPECT_EQ(suite_digest(CostModel::kProducts), 0xcd4cf9651978e2c8ULL);
}

TEST(TableDigest, SuiteTablesUnderProductsThenLiterals) {
    EXPECT_EQ(suite_digest(CostModel::kProductsThenLiterals), 0x0d8fc9a36b5d30c4ULL);
}

}  // namespace
