#include "lookhd/codebook.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace lookhd {

std::size_t
codebookBits(std::size_t q)
{
    LOOKHD_CHECK(q >= 2, "codebook needs q >= 2");
    std::size_t bits = 0;
    std::size_t span = 1;
    while (span < q) {
        span <<= 1;
        ++bits;
    }
    return bits;
}

Address
addressOf(std::span<const std::size_t> levels, std::size_t q)
{
    Address addr = 0;
    Address scale = 1;
    for (std::size_t j = 0; j < levels.size(); ++j) {
        LOOKHD_CHECK(levels[j] < q, "level index out of range");
        addr = util::checkedAdd(addr,
                                util::checkedMul(scale, levels[j]));
        if (j + 1 < levels.size())
            scale = util::checkedMul(scale, q);
    }
    return addr;
}

Address
bitAddressOf(std::span<const std::size_t> levels, std::size_t q)
{
    const std::size_t bits = codebookBits(q);
    LOOKHD_CHECK((std::size_t{1} << bits) == q,
                 "bit addressing requires power-of-2 q");
    LOOKHD_CHECK(bits * levels.size() <= 64,
                 "chunk address overflows 64 bits");
    Address addr = 0;
    for (std::size_t j = 0; j < levels.size(); ++j) {
        LOOKHD_CHECK(levels[j] < q, "level index out of range");
        addr |= static_cast<Address>(levels[j]) << (j * bits);
    }
    return addr;
}

void
decodeAddress(Address addr, std::size_t q,
              std::span<std::size_t> levels_out)
{
    for (std::size_t j = 0; j < levels_out.size(); ++j) {
        levels_out[j] = static_cast<std::size_t>(addr % q);
        addr /= q;
    }
    LOOKHD_CHECK(addr == 0, "address out of range for chunk");
}

Address
addressSpace(std::size_t q, std::size_t r)
{
    return util::checkedMulPow(q, r);
}

bool
tableFits(std::size_t q, std::size_t r, std::size_t dim,
          std::size_t budget_bytes)
{
    // q^r might overflow; probe multiplicatively against the budget
    // instead of computing it outright.
    const std::size_t bytes_per_row = dim * sizeof(std::int8_t);
    if (bytes_per_row == 0)
        return false;
    const std::size_t max_rows = budget_bytes / bytes_per_row;
    Address rows = 1;
    for (std::size_t j = 0; j < r; ++j) {
        if (rows > max_rows / q + 1)
            return false;
        rows *= q;
        if (rows > max_rows)
            return false;
    }
    return true;
}

} // namespace lookhd
