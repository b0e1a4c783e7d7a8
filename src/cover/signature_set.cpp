#include "cover/signature_set.hpp"

#include <algorithm>
#include <utility>

namespace ucp::cover {

namespace {

std::uint64_t reverse_bits(std::uint64_t x) noexcept {
    x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
    x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
    x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
    x = ((x >> 8) & 0x00FF00FF00FF00FFULL) | ((x & 0x00FF00FF00FF00FFULL) << 8);
    x = ((x >> 16) & 0x0000FFFF0000FFFFULL) | ((x & 0x0000FFFF0000FFFFULL) << 16);
    return (x >> 32) | (x << 32);
}

/// A record's sort key at one level: its next non-zero word (the record's
/// stride once it has none left) and that word's bits, keyed so that the
/// word holding the lowest differing bit sorts first.
struct Keyed {
    std::uint32_t word;
    std::uint32_t id;
    std::uint64_t bits;
};

/// Sorts keyed[lo, hi) — records equal up to their last keyed word — by
/// their next non-zero word, then each run that ties on it by the words
/// after. A record whose next non-zero word comes sooner has a set column
/// below every column left in the others, so it sorts first; one with none
/// left is a prefix of the rest and sorts last. Within one word,
/// bit-reversing puts the lowest bit on top, so the word that holds the
/// lowest differing bit compares greater; complementing makes it smaller.
/// Only non-zero words are keyed, so sparse records spanning many words
/// cost a level per set word, not per word.
void sort_from(const RecordSet& classes, std::vector<Keyed>& keyed,
               std::vector<std::uint32_t>& next, std::size_t lo, std::size_t hi) {
    const auto stride = static_cast<std::uint32_t>(classes.stride());
    for (std::size_t t = lo; t < hi; ++t) {
        Keyed& k = keyed[t];
        const std::uint64_t* rec = classes.record(k.id);
        std::uint32_t w = next[k.id];
        while (w < stride && rec[w] == 0) ++w;
        k.word = w;
        k.bits = w < stride ? ~reverse_bits(rec[w]) : 0;
        next[k.id] = w + 1;
    }
    const auto key_less = [](const Keyed& a, const Keyed& b) {
        return a.word != b.word ? a.word < b.word : a.bits < b.bits;
    };
    std::sort(keyed.begin() + static_cast<std::ptrdiff_t>(lo),
              keyed.begin() + static_cast<std::ptrdiff_t>(hi), key_less);
    for (std::size_t run = lo; run < hi;) {
        std::size_t end = run + 1;
        while (end < hi && keyed[end].word == keyed[run].word &&
               keyed[end].bits == keyed[run].bits)
            ++end;
        if (end - run > 1 && keyed[run].word < stride)
            sort_from(classes, keyed, next, run, end);
        run = end;
    }
}

}  // namespace

bool RecordSet::insert(const std::uint64_t* rec) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t at = hash(rec) & mask;; at = (at + 1) & mask) {
        const std::uint32_t e = slots_[at];
        if (e == 0) {
            const unsigned k = block_of(size_);
            if (k == blocks_.size())
                blocks_.emplace_back().reserve(
                    (std::size_t{1} << (k + kFirstShift)) * stride_);
            blocks_.back().insert(blocks_.back().end(), rec, rec + stride_);
            slots_[at] = static_cast<std::uint32_t>(++size_);
            return true;
        }
        if (std::equal(rec, rec + stride_, record(e - 1))) return false;
    }
}

std::size_t RecordSet::hash(const std::uint64_t* rec) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t w = 0; w < stride_; ++w) {
        h ^= rec[w];
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
    }
    return static_cast<std::size_t>(h);
}

/// Doubles the slot array (at least 1024 slots) and re-slots the pool.
void RecordSet::grow() {
    slots_.assign(std::max<std::size_t>(1024, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < size_; ++e) {
        std::size_t at = hash(record(e)) & mask;
        while (slots_[at] != 0) at = (at + 1) & mask;
        slots_[at] = static_cast<std::uint32_t>(e + 1);
    }
}

std::vector<std::uint32_t> member_first_order(const RecordSet& classes) {
    // Integer keys are sorted, and only the records that tie on a word are
    // keyed again, so no comparator ever reaches back into the pool.
    const std::size_t n = classes.size();
    std::vector<Keyed> keyed(n);
    for (std::size_t e = 0; e < n; ++e) keyed[e].id = static_cast<std::uint32_t>(e);
    std::vector<std::uint32_t> next(n, 0);
    sort_from(classes, keyed, next, 0, n);
    std::vector<std::uint32_t> order(n);
    for (std::size_t t = 0; t < n; ++t) order[t] = keyed[t].id;
    return order;
}

}  // namespace ucp::cover
