#include "btr/file_format.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "util/crc32c.h"

namespace btr {

namespace {

constexpr char kColumnMagic[4] = {'B', 'T', 'R', 'C'};
constexpr char kMetaMagicV1[4] = {'B', 'T', 'R', 'M'};
constexpr char kMetaMagic[4] = {'B', 'T', 'M', '2'};
// Smallest per-column record in a meta: name_len, type,
// uncompressed_bytes and block_count with an empty name and no blocks.
constexpr size_t kMinColumnMetaBytes = 2 + 1 + 8 + 4;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status WriteBufferToFile(const ByteBuffer& buffer, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  if (buffer.size() > 0 &&
      std::fwrite(buffer.data(), 1, buffer.size(), f.get()) != buffer.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

Status ReadFileToBuffer(const std::string& path, ByteBuffer* out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::NotFound(path + " missing");
  std::fseek(f.get(), 0, SEEK_END);
  long size = std::ftell(f.get());
  if (size < 0) return Status::IoError("cannot stat " + path);
  std::fseek(f.get(), 0, SEEK_SET);
  out->Resize(static_cast<size_t>(size));
  if (size > 0 && std::fread(out->data(), 1, out->size(), f.get()) !=
                      static_cast<size_t>(size)) {
    return Status::IoError("short read from " + path);
  }
  return Status::Ok();
}

// Bounds-checked cursor over a parse buffer.
struct Reader {
  const u8* p;
  size_t remaining;

  bool Read(void* dst, size_t n) {
    if (n > remaining) return false;
    std::memcpy(dst, p, n);
    p += n;
    remaining -= n;
    return true;
  }

  // Reads `count` u32s into `out`. The count comes from untrusted bytes,
  // so it is checked against what is left before anything is allocated.
  bool ReadU32s(u32 count, std::vector<u32>* out) {
    if (count > remaining / sizeof(u32)) return false;
    out->resize(count);
    return Read(out->data(), count * sizeof(u32));
  }
};

// Per-block payload sizes and CRC32Cs of an in-memory column.
void ColumnFraming(const CompressedColumn& column, std::vector<u32>* sizes,
                   std::vector<u32>* crcs) {
  sizes->reserve(column.blocks.size());
  crcs->reserve(column.blocks.size());
  for (const ByteBuffer& block : column.blocks) {
    sizes->push_back(static_cast<u32>(block.size()));
    crcs->push_back(Crc32c(block.data(), block.size()));
  }
}

std::string ColumnPath(const std::string& directory, const std::string& table,
                       size_t column_index) {
  return directory + "/" + table + "." + std::to_string(column_index) + ".btr";
}

std::string MetaPath(const std::string& directory, const std::string& table) {
  return directory + "/" + table + ".btrmeta";
}

}  // namespace

std::string TableMetaKey(const std::string& prefix, const std::string& table) {
  return prefix + table + ".btrmeta";
}

std::string ColumnFileKey(const std::string& prefix, const std::string& table,
                          size_t column_index) {
  return prefix + table + "." + std::to_string(column_index) + ".btr";
}

std::string ZoneMapKey(const std::string& prefix, const std::string& table) {
  return prefix + table + ".zones";
}

void SerializeTableMeta(const TableMeta& meta, ByteBuffer* out) {
  size_t start = out->size();
  out->Append(kMetaMagic, 4);
  out->AppendValue<u32>(static_cast<u32>(meta.columns.size()));
  out->AppendValue<u32>(meta.row_count);
  for (const TableMeta::ColumnMeta& column : meta.columns) {
    out->AppendValue<u16>(static_cast<u16>(column.name.size()));
    out->Append(column.name.data(), column.name.size());
    out->AppendValue<u8>(static_cast<u8>(column.type));
    out->AppendValue<u64>(column.uncompressed_bytes);
    const size_t block_count = column.block_value_counts.size();
    BTR_CHECK_MSG(column.block_sizes.size() == block_count &&
                      column.block_crcs.size() == block_count,
                  "meta framing needs one size and one CRC per block");
    out->AppendValue<u32>(static_cast<u32>(block_count));
    out->Append(column.block_value_counts.data(),
                column.block_value_counts.size() * sizeof(u32));
    out->Append(column.block_sizes.data(),
                column.block_sizes.size() * sizeof(u32));
    out->Append(column.block_crcs.data(),
                column.block_crcs.size() * sizeof(u32));
  }
  out->AppendValue<u32>(Crc32c(out->data() + start, out->size() - start));
}

void SerializeTableMeta(const CompressedRelation& relation, ByteBuffer* out) {
  TableMeta meta;
  meta.row_count = relation.row_count;
  for (const CompressedColumn& column : relation.columns) {
    TableMeta::ColumnMeta& cm = meta.columns.emplace_back();
    cm.name = column.name;
    cm.type = column.type;
    cm.uncompressed_bytes = column.uncompressed_bytes;
    cm.block_value_counts = column.block_value_counts;
    ColumnFraming(column, &cm.block_sizes, &cm.block_crcs);
  }
  SerializeTableMeta(meta, out);
}

Status ParseTableMeta(const u8* data, size_t size, TableMeta* out) {
  // Trailing footer CRC over everything before it: a flipped bit anywhere
  // in the metadata is caught here, before any field is trusted.
  if (size < 4) return Status::Corruption("metadata too small for CRC");
  u32 stored_crc;
  std::memcpy(&stored_crc, data + size - 4, 4);
  if (Crc32c(data, size - 4) != stored_crc) {
    return Status::Corruption("table metadata CRC mismatch");
  }
  size -= 4;
  Reader r{data, size};
  char magic[4];
  if (!r.Read(magic, 4)) return Status::Corruption("bad metadata magic");
  if (std::memcmp(magic, kMetaMagic, 4) == 0) {
    out->has_block_framing = true;
  } else if (std::memcmp(magic, kMetaMagicV1, 4) == 0) {
    out->has_block_framing = false;
  } else {
    return Status::Corruption("bad metadata magic");
  }
  u32 column_count;
  if (!r.Read(&column_count, 4) || !r.Read(&out->row_count, 4)) {
    return Status::Corruption("truncated metadata header");
  }
  if (column_count > r.remaining / kMinColumnMetaBytes) {
    return Status::Corruption("metadata column count exceeds its bytes");
  }
  out->columns.clear();
  out->columns.resize(column_count);
  for (TableMeta::ColumnMeta& column : out->columns) {
    u16 name_len;
    if (!r.Read(&name_len, 2)) return Status::Corruption("truncated metadata");
    column.name.resize(name_len);
    u8 type;
    if (!r.Read(column.name.data(), name_len) || !r.Read(&type, 1)) {
      return Status::Corruption("truncated metadata");
    }
    if (type > 2) return Status::Corruption("bad column type");
    column.type = static_cast<ColumnType>(type);
    u32 block_count;
    if (!r.Read(&column.uncompressed_bytes, 8) || !r.Read(&block_count, 4)) {
      return Status::Corruption("truncated metadata");
    }
    if (!r.ReadU32s(block_count, &column.block_value_counts)) {
      return Status::Corruption("truncated metadata");
    }
    if (out->has_block_framing &&
        (!r.ReadU32s(block_count, &column.block_sizes) ||
         !r.ReadU32s(block_count, &column.block_crcs))) {
      return Status::Corruption("truncated metadata block framing");
    }
  }
  return Status::Ok();
}

void SerializeColumnFileHeader(const std::vector<u32>& block_sizes,
                               const std::vector<u32>& block_crcs,
                               ByteBuffer* out) {
  size_t start = out->size();
  out->Append(kColumnMagic, 4);
  out->AppendValue<u32>(static_cast<u32>(block_sizes.size()));
  out->Append(block_sizes.data(), block_sizes.size() * sizeof(u32));
  out->Append(block_crcs.data(), block_crcs.size() * sizeof(u32));
  out->AppendValue<u32>(Crc32c(out->data() + start, out->size() - start));
}

void SerializeColumnFile(const CompressedColumn& column, ByteBuffer* out) {
  std::vector<u32> sizes;
  std::vector<u32> crcs;
  ColumnFraming(column, &sizes, &crcs);
  SerializeColumnFileHeader(sizes, crcs, out);
  for (const ByteBuffer& block : column.blocks) {
    out->Append(block.data(), block.size());
  }
}

Status ParseColumnFileHeader(const u8* data, size_t size,
                             std::vector<u32>* block_sizes,
                             std::vector<u32>* block_crcs) {
  Reader r{data, size};
  char magic[4];
  if (!r.Read(magic, 4) || std::memcmp(magic, kColumnMagic, 4) != 0) {
    return Status::Corruption("bad column magic");
  }
  u32 block_count;
  if (!r.Read(&block_count, 4)) {
    return Status::Corruption("truncated column header");
  }
  if (!r.ReadU32s(block_count, block_sizes)) {
    return Status::Corruption("truncated column block sizes");
  }
  std::vector<u32> local_crcs;
  std::vector<u32>& crcs = block_crcs != nullptr ? *block_crcs : local_crcs;
  if (!r.ReadU32s(block_count, &crcs)) {
    return Status::Corruption("truncated column block CRCs");
  }
  u32 stored_crc;
  if (!r.Read(&stored_crc, 4)) {
    return Status::Corruption("truncated column header CRC");
  }
  u64 covered = ColumnFileHeaderBytes(block_count) - 4;
  if (Crc32c(data, covered) != stored_crc) {
    return Status::Corruption("column header CRC mismatch");
  }
  return Status::Ok();
}

Status WriteCompressedRelation(const CompressedRelation& relation,
                               const std::string& directory) {
  ByteBuffer buffer;
  SerializeTableMeta(relation, &buffer);
  BTR_RETURN_IF_ERROR(
      WriteBufferToFile(buffer, MetaPath(directory, relation.name)));
  for (size_t i = 0; i < relation.columns.size(); i++) {
    buffer.Clear();
    SerializeColumnFile(relation.columns[i], &buffer);
    BTR_RETURN_IF_ERROR(
        WriteBufferToFile(buffer, ColumnPath(directory, relation.name, i)));
  }
  return Status::Ok();
}

Status ReadTableMeta(const std::string& directory,
                     const std::string& table_name, TableMeta* out) {
  ByteBuffer buffer;
  BTR_RETURN_IF_ERROR(ReadFileToBuffer(MetaPath(directory, table_name), &buffer));
  return ParseTableMeta(buffer.data(), buffer.size(), out);
}

Status ReadCompressedColumn(const std::string& directory,
                            const std::string& table_name,
                            const TableMeta& meta, size_t column_index,
                            CompressedColumn* out) {
  if (column_index >= meta.columns.size()) {
    return Status::InvalidArgument("column index out of range");
  }
  const TableMeta::ColumnMeta& cm = meta.columns[column_index];
  out->name = cm.name;
  out->type = cm.type;
  out->uncompressed_bytes = cm.uncompressed_bytes;
  out->block_value_counts = cm.block_value_counts;

  ByteBuffer file;
  BTR_RETURN_IF_ERROR(
      ReadFileToBuffer(ColumnPath(directory, table_name, column_index), &file));
  std::vector<u32> sizes;
  std::vector<u32> crcs;
  BTR_RETURN_IF_ERROR(
      ParseColumnFileHeader(file.data(), file.size(), &sizes, &crcs));
  if (sizes.size() != cm.block_value_counts.size()) {
    return Status::Corruption("metadata/column block count mismatch");
  }
  u64 offset = ColumnFileHeaderBytes(sizes.size());
  out->blocks.clear();
  out->blocks.reserve(sizes.size());
  out->block_root_schemes.resize(sizes.size());
  for (size_t b = 0; b < sizes.size(); b++) {
    if (offset + sizes[b] > file.size()) {
      return Status::Corruption("column file truncated");
    }
    if (Crc32c(file.data() + offset, sizes[b]) != crcs[b]) {
      return Status::Corruption("block " + std::to_string(b) +
                                " payload CRC mismatch");
    }
    ByteBuffer block;  // copy keeps SIMD read padding per block
    block.Append(file.data() + offset, sizes[b]);
    offset += sizes[b];
    out->block_root_schemes[b] = PeekBlockScheme(block.data());
    out->blocks.push_back(std::move(block));
  }
  return Status::Ok();
}

Status ReadCompressedRelation(const std::string& directory,
                              const std::string& table_name,
                              CompressedRelation* out) {
  TableMeta meta;
  BTR_RETURN_IF_ERROR(ReadTableMeta(directory, table_name, &meta));
  out->name = table_name;
  out->row_count = meta.row_count;
  out->columns.clear();
  out->columns.resize(meta.columns.size());
  for (size_t i = 0; i < meta.columns.size(); i++) {
    BTR_RETURN_IF_ERROR(
        ReadCompressedColumn(directory, table_name, meta, i, &out->columns[i]));
  }
  return Status::Ok();
}

}  // namespace btr
