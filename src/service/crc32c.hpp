/**
 * @file
 * CRC-32C (Castagnoli, reflected polynomial 0x82f63b78): the payload
 * checksum of the `.twj` journal records and of `.tgs` snapshots from
 * format version 4 on.
 *
 * crc32c() picks its implementation once per process: the SSE4.2
 * `crc32` instruction on x86-64 CPUs that have it, slicing-by-8 tables
 * everywhere else. Both give bit-identical results; the choice is made
 * from the CPU alone, with no configuration.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace tigr::service {

/** CRC-32C of @p size bytes at @p data, seeded by @p crc (0 to start;
 *  chain calls to checksum discontiguous buffers:
 *  crc32c(b, n, crc32c(a, m)) is the CRC of a then b). */
std::uint32_t crc32c(const void *data, std::size_t size,
                     std::uint32_t crc = 0);

/** The portable slicing-by-8 implementation crc32c() falls back to;
 *  same contract and results. */
std::uint32_t crc32cSlicing8(const void *data, std::size_t size,
                             std::uint32_t crc = 0);

} // namespace tigr::service
