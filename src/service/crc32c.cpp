#include "service/crc32c.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TIGR_CRC32C_SSE42 1
#include <nmmintrin.h>
#else
#define TIGR_CRC32C_SSE42 0
#endif

namespace tigr::service {

namespace {

// The word loads below assemble bytes in little-endian order, the only
// byte order the repo's binary formats target.
static_assert(std::endian::native == std::endian::little,
              "crc32c assumes a little-endian host");

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/** tables[0] is the classic byte-at-a-time table; tables[k][b] is the
 *  CRC contribution of byte b followed by k zero bytes. */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ ((c & 1u) ? 0x82f63b78u : 0u);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr Tables kTables = makeTables();

#if TIGR_CRC32C_SSE42
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const void *data, std::size_t size, std::uint32_t crc)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = ~crc;
    for (; size > 0 && reinterpret_cast<std::uintptr_t>(p) % 8 != 0;
         --size)
        c = _mm_crc32_u8(c, *p++);
    std::uint64_t wide = c;
    for (; size >= 8; size -= 8, p += 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        wide = _mm_crc32_u64(wide, word);
    }
    c = static_cast<std::uint32_t>(wide);
    for (; size > 0; --size)
        c = _mm_crc32_u8(c, *p++);
    return ~c;
}
#endif

using Crc32cFn = std::uint32_t (*)(const void *, std::size_t,
                                   std::uint32_t);

Crc32cFn
chooseImplementation()
{
#if TIGR_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return crc32cSse42;
#endif
    return crc32cSlicing8;
}

/** The dispatched implementation, chosen on first use (a function
 *  static, so a caller running during static initialization still
 *  finds it set). */
Crc32cFn
dispatched()
{
    static const Crc32cFn fn = chooseImplementation();
    return fn;
}

} // namespace

std::uint32_t
crc32cSlicing8(const void *data, std::size_t size, std::uint32_t crc)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = ~crc;
    for (; size >= 8; size -= 8, p += 8) {
        std::uint32_t lo;
        std::uint32_t hi;
        std::memcpy(&lo, p, sizeof(lo));
        std::memcpy(&hi, p + 4, sizeof(hi));
        lo ^= c;
        c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
            kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
            kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; --size)
        c = (c >> 8) ^ kTables[0][(c ^ *p++) & 0xffu];
    return ~c;
}

std::uint32_t
crc32c(const void *data, std::size_t size, std::uint32_t crc)
{
    return dispatched()(data, size, crc);
}

} // namespace tigr::service
