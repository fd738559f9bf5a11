/**
 * @file
 * Seeded byte-level mutators shared by the mutation fuzz suites
 * (test_frontend_fuzz, test_input_fuzz). The schedule is a fixed
 * SplitMix64 stream, so every run and every platform feeds the code
 * under test the same mutants.
 */

#ifndef RID_TESTS_MUTATION_UTIL_H
#define RID_TESTS_MUTATION_UTIL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rid::testutil {

struct Mutant
{
    std::string label;
    std::string text;
};

/** SplitMix64: a fixed, platform-independent mutation schedule. */
struct Rng
{
    uint64_t state;
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }
};

/** Append @p n single-byte flips of @p src (XOR with a nonzero mask). */
inline void
addFlips(std::vector<Mutant> &out, const std::string &src, Rng &rng, int n)
{
    for (int k = 0; k < n; k++) {
        size_t at = rng.below(src.size());
        auto mask = static_cast<char>(1 + rng.below(255));
        std::string text = src;
        text[at] = static_cast<char>(text[at] ^ mask);
        out.push_back({"flip@" + std::to_string(at), std::move(text)});
    }
}

/** Append the prefixes of @p src cut at every @p stride-th byte. */
inline void
addTruncations(std::vector<Mutant> &out, const std::string &src,
               size_t stride)
{
    for (size_t cut = stride; cut < src.size(); cut += stride)
        out.push_back(
            {"truncate@" + std::to_string(cut), src.substr(0, cut)});
}

} // namespace rid::testutil

#endif // RID_TESTS_MUTATION_UTIL_H
