// Flat containers of the table-build layer (DESIGN.md §8). A signature class
// is a bitset over one output's local columns (bit i stands for the i-th
// column asserting the output, columns ascending), so a class is a fixed-
// length record of u64 words and a set of classes needs no per-class
// allocation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ucp::cover {

/// Set of fixed-length u64 records: open addressing over a flat pool, so an
/// insert costs no allocation (a hash set of key vectors measured 12% slower
/// on the suites' onset layer). Records keep their insertion index. The pool
/// is a list of blocks of doubling size, so it grows without copying: a
/// doubling vector copied into fresh pages on each growth, and on wide
/// records (16 × 1 × 300, 311-word signatures) those page faults cost more
/// than the hashing.
class RecordSet {
public:
    explicit RecordSet(std::size_t stride) : stride_(stride) {}

    /// Adds the `stride()` words at `rec`; false if already present.
    bool insert(const std::uint64_t* rec);

    [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// The e-th record inserted.
    [[nodiscard]] const std::uint64_t* record(std::size_t e) const noexcept {
        const unsigned k = block_of(e);
        return blocks_[k].data() + (e - block_start(k)) * stride_;
    }

private:
    /// Block k holds 2^k · 2^kFirstShift records.
    static constexpr unsigned kFirstShift = 4;
    static unsigned block_of(std::size_t e) noexcept {
        return static_cast<unsigned>(std::bit_width((e >> kFirstShift) + 1)) - 1;
    }
    static std::size_t block_start(unsigned k) noexcept {
        return ((std::size_t{1} << k) - 1) << kFirstShift;
    }

    [[nodiscard]] std::size_t hash(const std::uint64_t* rec) const noexcept;
    void grow();

    std::size_t stride_;
    std::vector<std::uint32_t> slots_;  ///< record index + 1, 0 = empty
    std::vector<std::vector<std::uint64_t>> blocks_;
    std::size_t size_ = 0;
};

/// The row order of the covering matrix, on signature bitsets: the indices
/// of `classes`' records sorted so that their column lists ascend element-
/// wise, with a proper prefix AFTER its extensions (the order in which a
/// member-first partition refinement over ascending columns emits its
/// classes). On bitsets, a < b iff the lowest set bit of a ^ b belongs to a,
/// words compared from column 0 upward. The records must be distinct. The
/// sort keys one non-zero word per level, so its cost follows the set words
/// of a record, not the stride.
std::vector<std::uint32_t> member_first_order(const RecordSet& classes);

}  // namespace ucp::cover
