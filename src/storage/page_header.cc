#include "storage/page_header.h"

#include <array>
#include <string>

#include "simd/simd.h"

namespace boxagg {

namespace {

// Slice-by-8 CRC32C tables, built once on first use (thread-safe static
// init). Table 0 is the plain byte-at-a-time table; table k folds a byte
// that is k positions deeper into the window.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xff] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint32_t Crc32cRef(const void* data, size_t n, uint32_t crc) {
  const auto& t = Tables().t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n >= 8) {
    crc ^= LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][crc & 0xff] ^ t[6][(crc >> 8) & 0xff] ^
          t[5][(crc >> 16) & 0xff] ^ t[4][crc >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(BOXAGG_SIMD_AVX2)

namespace {

// Bytes each of the three interleaved crc32 streams covers per round. The
// instruction has a 3-cycle latency and a 1-cycle issue rate, so three
// independent streams keep it busy; the blocks are merged with one shift.
constexpr size_t kCrcBlock = 256;

// The zeros operator for kCrcBlock bytes (Mark Adler's crc32c_shift): maps a
// raw CRC register r to the register after kCrcBlock zero bytes, i.e.
// r * x^(8 * kCrcBlock) mod P. The map is linear over GF(2), so it is
// tabulated per register byte and applied with four lookups.
struct Crc32cShift {
  std::array<std::array<uint32_t, 256>, 4> t;

  Crc32cShift() {
    for (uint32_t k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint64_t crc = b << (8 * k);
        for (size_t i = 0; i < kCrcBlock; i += 8) crc = _mm_crc32_u64(crc, 0);
        t[k][b] = static_cast<uint32_t>(crc);
      }
    }
  }

  uint32_t operator()(uint32_t crc) const {
    return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
           t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
  }
};

const Crc32cShift& Shift() {
  static const Crc32cShift shift;
  return shift;
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const Crc32cShift& shift = Shift();
  uint64_t c0 = ~crc;
  for (; n >= 3 * kCrcBlock; p += 3 * kCrcBlock, n -= 3 * kCrcBlock) {
    // Stream 0 continues the running CRC; streams 1 and 2 start from a zero
    // register, and linearity lets the shifts stitch them on.
    uint64_t c1 = 0, c2 = 0;
    for (size_t i = 0; i < kCrcBlock; i += 8) {
      c0 = _mm_crc32_u64(c0, LoadLe64(p + i));
      c1 = _mm_crc32_u64(c1, LoadLe64(p + kCrcBlock + i));
      c2 = _mm_crc32_u64(c2, LoadLe64(p + 2 * kCrcBlock + i));
    }
    c0 = shift(shift(static_cast<uint32_t>(c0)) ^ static_cast<uint32_t>(c1)) ^
         c2;
  }
  for (; n >= 8; p += 8, n -= 8) c0 = _mm_crc32_u64(c0, LoadLe64(p));
  uint32_t c = static_cast<uint32_t>(c0);
  for (; n > 0; ++p, --n) c = _mm_crc32_u8(c, *p);
  return ~c;
}

#else

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  return Crc32cRef(data, n, crc);
}

#endif

namespace {

// The CRC spans everything in the slot except the magic and the CRC field
// itself: the id/epoch/reserved header words followed by the payload.
uint32_t SlotCrc(const uint8_t* slot, uint32_t page_size) {
  uint32_t crc = Crc32c(slot + kPageOffId, kPageHeaderSize - kPageOffId);
  return Crc32c(slot + kPageHeaderSize, page_size, crc);
}

bool AllZero(const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

}  // namespace

void EncodePageSlot(uint8_t* slot, uint32_t page_size, PageId id,
                    uint64_t epoch, const uint8_t* payload) {
  std::memcpy(slot + kPageOffId, &id, sizeof(id));
  std::memcpy(slot + kPageOffEpoch, &epoch, sizeof(epoch));
  std::memset(slot + kPageOffReserved, 0, 8);
  std::memcpy(slot + kPageHeaderSize, payload, page_size);
  const uint32_t magic = kPageMagic;
  std::memcpy(slot + kPageOffMagic, &magic, sizeof(magic));
  const uint32_t crc = SlotCrc(slot, page_size);
  std::memcpy(slot + kPageOffCrc, &crc, sizeof(crc));
}

Status DecodePageSlot(const uint8_t* slot, uint32_t page_size, PageId id,
                      uint8_t* payload_out, uint64_t* epoch_out) {
  uint32_t magic;
  std::memcpy(&magic, slot + kPageOffMagic, sizeof(magic));
  if (magic == 0 && AllZero(slot, kPageHeaderSize)) {
    // Never-written slot: legal only if the payload is all zeros too.
    if (!AllZero(slot + kPageHeaderSize, page_size)) {
      return Status::Corruption("page " + std::to_string(id) +
                                ": zero header over nonzero payload (torn "
                                "write)");
    }
    std::memset(payload_out, 0, page_size);
    if (epoch_out != nullptr) *epoch_out = 0;
    return Status::OK();
  }
  if (magic != kPageMagic) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": bad page magic");
  }
  PageId stored_id;
  std::memcpy(&stored_id, slot + kPageOffId, sizeof(stored_id));
  if (stored_id != id) {
    return Status::Corruption(
        "page " + std::to_string(id) + ": header stamped for page " +
        std::to_string(stored_id) + " (misdirected write)");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, slot + kPageOffCrc, sizeof(stored_crc));
  if (stored_crc != SlotCrc(slot, page_size)) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": checksum mismatch (bit flip or torn "
                              "write)");
  }
  std::memcpy(payload_out, slot + kPageHeaderSize, page_size);
  if (epoch_out != nullptr) {
    std::memcpy(epoch_out, slot + kPageOffEpoch, sizeof(*epoch_out));
  }
  return Status::OK();
}

}  // namespace boxagg
