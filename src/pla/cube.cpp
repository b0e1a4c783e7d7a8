#include "pla/cube.hpp"

#include <bit>
#include <cmath>

namespace ucp::pla {

char lit_to_char(Lit l) noexcept {
    switch (l) {
        case Lit::kZero: return '0';
        case Lit::kOne: return '1';
        case Lit::kDontCare: return '-';
        case Lit::kEmpty: return '!';
    }
    return '?';
}

std::optional<Lit> lit_from_char(char c) noexcept {
    switch (c) {
        case '0': return Lit::kZero;
        case '1': return Lit::kOne;
        case '-':
        case '2':
        case 'x':
        case 'X': return Lit::kDontCare;
        default: return std::nullopt;
    }
}

namespace {

/// Mask of the low `count` valid bits in word `w` of an n-bit field.
std::uint64_t tail_mask(std::uint32_t n, std::uint32_t word) noexcept {
    const std::uint32_t lo = word * 64;
    if (n <= lo) return 0;
    const std::uint32_t bits = n - lo;
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

}  // namespace

Cube Cube::full(const CubeSpace& s) {
    Cube c = zeroed(s);
    for (std::uint32_t w = 0; w < s.in_words(); ++w) {
        const std::uint64_t m = tail_mask(s.num_inputs, w);
        c.a0(s)[w] = m;
        c.a1(s)[w] = m;
    }
    for (std::uint32_t w = 0; w < s.out_words(); ++w)
        c.ow(s)[w] = tail_mask(s.num_outputs, w);
    return c;
}

Cube Cube::full_inputs(const CubeSpace& s) {
    Cube c = zeroed(s);
    for (std::uint32_t w = 0; w < s.in_words(); ++w) {
        const std::uint64_t m = tail_mask(s.num_inputs, w);
        c.a0(s)[w] = m;
        c.a1(s)[w] = m;
    }
    return c;
}

Cube Cube::from_words(const CubeSpace& s, const std::uint64_t* w) {
    return Cube(std::vector<std::uint64_t>(w, w + s.words()));
}

Cube Cube::parse(const CubeSpace& s, const std::string& in_part,
                 const std::string& out_part) {
    UCP_REQUIRE(in_part.size() == s.num_inputs, "input part length mismatch");
    UCP_REQUIRE(out_part.size() == s.num_outputs || out_part.empty(),
                "output part length mismatch");
    Cube c = zeroed(s);
    for (std::uint32_t i = 0; i < s.num_inputs; ++i) {
        const auto l = lit_from_char(in_part[i]);
        UCP_REQUIRE(l.has_value(), "bad literal character");
        c.set_in(s, i, *l);
    }
    for (std::uint32_t k = 0; k < static_cast<std::uint32_t>(out_part.size()); ++k)
        c.set_out(s, k, out_part[k] == '1' || out_part[k] == '4');
    return c;
}

Lit Cube::in(const CubeSpace& s, std::uint32_t i) const {
    UCP_ASSERT(i < s.num_inputs);
    const std::uint32_t w = i / 64, b = i % 64;
    const unsigned bit0 = static_cast<unsigned>((a0(s)[w] >> b) & 1);
    const unsigned bit1 = static_cast<unsigned>((a1(s)[w] >> b) & 1);
    return static_cast<Lit>(bit0 | (bit1 << 1));
}

void Cube::set_in(const CubeSpace& s, std::uint32_t i, Lit l) {
    UCP_ASSERT(i < s.num_inputs);
    const std::uint32_t w = i / 64, b = i % 64;
    const auto v = static_cast<unsigned>(l);
    a0(s)[w] = (a0(s)[w] & ~(1ULL << b)) | (static_cast<std::uint64_t>(v & 1) << b);
    a1(s)[w] =
        (a1(s)[w] & ~(1ULL << b)) | (static_cast<std::uint64_t>((v >> 1) & 1) << b);
}

bool Cube::out(const CubeSpace& s, std::uint32_t k) const {
    UCP_ASSERT(k < s.num_outputs);
    return (ow(s)[k / 64] >> (k % 64)) & 1;
}

void Cube::set_out(const CubeSpace& s, std::uint32_t k, bool value) {
    UCP_ASSERT(k < s.num_outputs);
    const std::uint64_t bit = 1ULL << (k % 64);
    if (value)
        ow(s)[k / 64] |= bit;
    else
        ow(s)[k / 64] &= ~bit;
}

bool Cube::inputs_valid(const CubeSpace& s) const {
    // Each variable needs at least one allowed value: (a0 | a1) must cover all
    // valid positions.
    for (std::uint32_t w = 0; w < s.in_words(); ++w)
        if ((a0(s)[w] | a1(s)[w]) != tail_mask(s.num_inputs, w)) return false;
    return true;
}

bool Cube::any_output(const CubeSpace& s) const {
    if (s.num_outputs == 0) return true;
    for (std::uint32_t w = 0; w < s.out_words(); ++w)
        if (ow(s)[w] != 0) return true;
    return false;
}

bool Cube::valid(const CubeSpace& s) const {
    return inputs_valid(s) && any_output(s);
}

bool Cube::contains(const CubeSpace& s, const Cube& other) const {
    (void)s;
    for (std::size_t w = 0; w < w_.size(); ++w)
        if ((other.w_[w] & w_[w]) != other.w_[w]) return false;
    return true;
}

bool Cube::contains_inputs(const CubeSpace& s, const Cube& other) const {
    for (std::uint32_t w = 0; w < 2 * s.in_words(); ++w)
        if ((other.w_[w] & w_[w]) != other.w_[w]) return false;
    return true;
}

bool Cube::intersects_inputs(const CubeSpace& s, const Cube& other) const {
    for (std::uint32_t w = 0; w < s.in_words(); ++w) {
        const std::uint64_t both =
            (a0(s)[w] & other.a0(s)[w]) | (a1(s)[w] & other.a1(s)[w]);
        if (both != tail_mask(s.num_inputs, w)) return false;
    }
    return true;
}

Cube Cube::intersect(const CubeSpace& s, const Cube& other) const {
    (void)s;
    Cube r = *this;
    for (std::size_t w = 0; w < w_.size(); ++w) r.w_[w] &= other.w_[w];
    return r;
}

Cube Cube::supercube(const CubeSpace& s, const Cube& other) const {
    (void)s;
    Cube r = *this;
    for (std::size_t w = 0; w < w_.size(); ++w) r.w_[w] |= other.w_[w];
    return r;
}

std::uint32_t Cube::distance(const CubeSpace& s, const Cube& other) const {
    std::uint32_t d = 0;
    for (std::uint32_t w = 0; w < s.in_words(); ++w) {
        // A variable conflicts when neither value is allowed by both cubes.
        const std::uint64_t ok =
            (a0(s)[w] & other.a0(s)[w]) | (a1(s)[w] & other.a1(s)[w]);
        d += static_cast<std::uint32_t>(
            std::popcount(tail_mask(s.num_inputs, w) & ~ok));
    }
    if (s.num_outputs > 0) {
        bool out_ok = false;
        for (std::uint32_t w = 0; w < s.out_words(); ++w)
            if ((ow(s)[w] & other.ow(s)[w]) != 0) out_ok = true;
        if (!out_ok) ++d;
    }
    return d;
}

std::optional<Cube> Cube::consensus(const CubeSpace& s, const Cube& other) const {
    if (distance(s, other) != 1) return std::nullopt;
    // Intersection everywhere, union on the single conflicting part.
    Cube r = intersect(s, other);
    // Find the conflicting input variable, if any.
    for (std::uint32_t w = 0; w < s.in_words(); ++w) {
        const std::uint64_t ok = r.a0(s)[w] | r.a1(s)[w];
        std::uint64_t bad = tail_mask(s.num_inputs, w) & ~ok;
        if (bad != 0) {
            const auto b = static_cast<std::uint32_t>(std::countr_zero(bad));
            r.a0(s)[w] |= (a0(s)[w] | other.a0(s)[w]) & (1ULL << b);
            r.a1(s)[w] |= (a1(s)[w] | other.a1(s)[w]) & (1ULL << b);
            return r;
        }
    }
    // Otherwise the conflict is in the output part: take the union there.
    for (std::uint32_t w = 0; w < s.out_words(); ++w)
        r.ow(s)[w] = ow(s)[w] | other.ow(s)[w];
    return r;
}

std::optional<Cube> Cube::output_consensus(const CubeSpace& s,
                                           const Cube& other) const {
    if (s.num_outputs == 0) return std::nullopt;
    if (distance(s, other) != 0) return std::nullopt;
    Cube r = intersect(s, other);
    for (std::uint32_t w = 0; w < s.out_words(); ++w)
        r.ow(s)[w] = ow(s)[w] | other.ow(s)[w];
    return r;
}

std::uint32_t Cube::input_literal_count(const CubeSpace& s) const {
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < s.in_words(); ++w) {
        const std::uint64_t dc = a0(s)[w] & a1(s)[w];
        n += static_cast<std::uint32_t>(
            std::popcount(tail_mask(s.num_inputs, w) & ~dc));
    }
    return n;
}

std::uint32_t Cube::free_input_count(const CubeSpace& s) const {
    return s.num_inputs - input_literal_count(s);
}

std::uint32_t Cube::output_count(const CubeSpace& s) const {
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < s.out_words(); ++w)
        n += static_cast<std::uint32_t>(std::popcount(ow(s)[w]));
    return n;
}

double Cube::point_count(const CubeSpace& s) const {
    const double outs = s.num_outputs == 0 ? 1.0 : output_count(s);
    return std::ldexp(outs, static_cast<int>(free_input_count(s)));
}

bool Cube::covers_assignment(const CubeSpace& s,
                             const std::vector<std::uint64_t>& assignment) const {
    UCP_REQUIRE(assignment.size() >= s.in_words(), "assignment too short");
    for (std::uint32_t w = 0; w < s.in_words(); ++w) {
        const std::uint64_t m = tail_mask(s.num_inputs, w);
        const std::uint64_t ones = assignment[w] & m;
        // Where the assignment is 1, allow1 must be set; where 0, allow0.
        if ((ones & ~a1(s)[w]) != 0) return false;
        if ((~ones & m & ~a0(s)[w]) != 0) return false;
    }
    return true;
}

std::string Cube::to_string(const CubeSpace& s) const {
    std::string str;
    str.reserve(s.num_inputs + 1 + s.num_outputs);
    for (std::uint32_t i = 0; i < s.num_inputs; ++i)
        str.push_back(lit_to_char(in(s, i)));
    if (s.num_outputs > 0) {
        str.push_back(' ');
        for (std::uint32_t k = 0; k < s.num_outputs; ++k)
            str.push_back(out(s, k) ? '1' : '0');
    }
    return str;
}

std::size_t Cube::hash() const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint64_t w : w_) {
        h ^= w;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
    }
    return static_cast<std::size_t>(h);
}

}  // namespace ucp::pla
