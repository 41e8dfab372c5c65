#include "write/intent.h"

#include <cstring>

#include "util/crc32c.h"

namespace btr::write {

namespace {
constexpr char kIntentMagic[4] = {'B', 'T', 'R', 'I'};
}  // namespace

const char* IntentPhaseName(IntentPhase phase) {
  switch (phase) {
    case IntentPhase::kStaging: return "staging";
    case IntentPhase::kStaged: return "staged";
  }
  return "?";
}

void SerializeIntent(const IntentRecord& intent, ByteBuffer* out) {
  size_t start = out->size();
  out->Append(kIntentMagic, 4);
  out->AppendValue<u32>(kIntentFormatVersion);
  out->AppendValue<u64>(intent.version);
  out->AppendValue<u8>(static_cast<u8>(intent.phase));
  out->AppendValue<u16>(static_cast<u16>(intent.table.size()));
  out->Append(intent.table.data(), intent.table.size());
  out->AppendValue<u32>(static_cast<u32>(intent.entries.size()));
  for (const IntentEntry& entry : intent.entries) {
    out->AppendValue<u16>(static_cast<u16>(entry.key.size()));
    out->Append(entry.key.data(), entry.key.size());
    out->AppendValue<u16>(static_cast<u16>(entry.upload_id.size()));
    out->Append(entry.upload_id.data(), entry.upload_id.size());
    out->AppendValue<u64>(entry.size);
    out->AppendValue<u32>(entry.crc32c);
  }
  out->AppendValue<u32>(Crc32c(out->data() + start, out->size() - start));
}

Status ParseIntent(const u8* data, size_t size, IntentRecord* out) {
  if (size < 4) return Status::Corruption("intent too small for CRC");
  u32 stored_crc;
  std::memcpy(&stored_crc, data + size - 4, 4);
  if (Crc32c(data, size - 4) != stored_crc) {
    return Status::Corruption("intent CRC mismatch");
  }
  const u8* p = data;
  size_t remaining = size - 4;
  auto read = [&](void* dst, size_t n) {
    if (n > remaining) return false;
    std::memcpy(dst, p, n);
    p += n;
    remaining -= n;
    return true;
  };
  auto read_string = [&](std::string* dst) {
    u16 len;
    if (!read(&len, 2)) return false;
    dst->resize(len);
    return read(dst->data(), len);
  };
  char magic[4];
  if (!read(magic, 4) || std::memcmp(magic, kIntentMagic, 4) != 0) {
    return Status::Corruption("bad intent magic");
  }
  u32 format;
  if (!read(&format, 4)) return Status::Corruption("truncated intent");
  if (format != kIntentFormatVersion) {
    return Status::Corruption("unsupported intent format " +
                              std::to_string(format));
  }
  u8 phase;
  if (!read(&out->version, 8) || !read(&phase, 1)) {
    return Status::Corruption("truncated intent");
  }
  if (phase > static_cast<u8>(IntentPhase::kStaged)) {
    return Status::Corruption("bad intent phase");
  }
  out->phase = static_cast<IntentPhase>(phase);
  u32 entry_count;
  if (!read_string(&out->table) || !read(&entry_count, 4)) {
    return Status::Corruption("truncated intent");
  }
  // An entry holds at least two u16 lengths, a u64 size and a u32 CRC;
  // reject a count its bytes cannot hold before it sizes an allocation.
  constexpr size_t kMinEntryBytes = 2 + 2 + 8 + 4;
  if (entry_count > remaining / kMinEntryBytes) {
    return Status::Corruption("intent entry count exceeds its bytes");
  }
  out->entries.clear();
  out->entries.resize(entry_count);
  for (IntentEntry& entry : out->entries) {
    if (!read_string(&entry.key) || !read_string(&entry.upload_id) ||
        !read(&entry.size, 8) || !read(&entry.crc32c, 4)) {
      return Status::Corruption("truncated intent entry");
    }
  }
  return Status::Ok();
}

}  // namespace btr::write
