#pragma once

#include <cstddef>
#include <cstdint>

/// \file crc32.h
/// \brief CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the zlib
/// checksum, computed without the dependency (slicing-by-8: eight input bytes
/// per step through eight 256-entry tables; portable, any byte order).
///
/// Used to seal parameter payloads (nn/serialize) and model-state transfer
/// frames (serve/state_transfer): a truncated or bit-flipped payload must
/// fail loudly with a location, never load as garbage weights. CRC-32 is a
/// corruption detector, not an authenticator — serving sits behind the trust
/// boundary, and what we defend against is torn writes, truncated copies and
/// flaky transports.

namespace selnet::util {

/// \brief CRC of `len` bytes, continuing from `seed` (pass the previous
/// return value to checksum a payload in chunks; start with 0).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

}  // namespace selnet::util
