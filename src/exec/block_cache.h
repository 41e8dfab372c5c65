// Checksum-verified in-memory block cache for the scan read path.
//
// Repeated scans of the same table re-GET the same compressed block
// payloads; since decompression is cheap (the paper's premise), those GETs
// *are* the scan cost. The cache keys entries by the exact ranged-GET
// identity (store, object key, offset, length), so a warm scan skips the
// object store entirely for every cached block, and a cache shared by two
// stores never answers one's GET with the other's bytes.
//
// Integrity contract: an entry is admitted only when its bytes hash to the
// CRC32C the column header promised (the same checksum the scanner
// verifies before decoding). A GET that arrived corrupt is therefore
// *rejected at insert* — the cache can serve stale-but-verified bytes,
// never corrupt ones. Entries are immutable refcounted payloads:
// `LookupShared` hands out a `std::shared_ptr<const ByteBuffer>` without
// copying, so the shard mutex covers only LRU bookkeeping.
//
// Concurrency: the cache is sharded by key hash. Each shard owns a mutex,
// an LRU list and a byte budget (capacity_bytes / shards), so concurrent
// fetch threads mostly touch different locks. Metrics (process-wide):
//   cache.block.hits / cache.block.misses      lookup outcomes
//   cache.block.inserts / cache.block.evictions admissions and LRU victims
//   cache.block.crc_rejects                    corrupt payloads refused
//   cache.block.bytes                          gauge, bytes currently held
//   cache.block.bytes_evicted                  payload bytes LRU-evicted
//
// Ownership attribution: `Insert` takes an optional 32-bit `owner` tag
// (0 = unowned). When an owned entry leaves the cache — LRU eviction,
// replacement, or Erase — the eviction callback fires with the owner and
// the payload size, outside the shard mutex. btr::service::ScanService
// uses this to keep per-tenant cached-byte counts honest.
#ifndef BTR_EXEC_BLOCK_CACHE_H_
#define BTR_EXEC_BLOCK_CACHE_H_

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/buffer.h"
#include "util/types.h"

namespace btr::exec {

struct BlockCacheConfig {
  u64 capacity_bytes = 64ull << 20;  // total payload bytes across shards
  u32 shards = 8;                    // independent LRU partitions
};

class BlockCache {
 public:
  using Payload = std::shared_ptr<const ByteBuffer>;
  // Fired when an owned (owner != 0) entry leaves the cache, with the
  // owner tag and the payload size. Invoked outside the shard mutex, so
  // the callback may call back into the cache; it must still be cheap
  // and thread-safe (concurrent shards fire concurrently).
  using EvictionCallback = std::function<void(u32 owner, u64 bytes)>;

  explicit BlockCache(const BlockCacheConfig& config = BlockCacheConfig());

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Installs the owned-entry eviction callback. Not synchronized against
  // concurrent cache operations: call once, before the cache is shared.
  void SetEvictionCallback(EvictionCallback callback) {
    eviction_callback_ = std::move(callback);
  }

  // Returns the refcounted immutable payload cached for this exact
  // (store_id, key, offset, length) GET, without copying it, or nullptr on
  // miss. The payload stays valid for as long as the caller holds the
  // pointer, even across eviction.
  Payload LookupShared(u64 store_id, const std::string& key, u64 offset,
                       u64 length);
  // Same, from whichever store: for tools inspecting a one-store cache.
  Payload LookupShared(const std::string& key, u64 offset, u64 length);

  // Admits the payload after verifying Crc32c(data, size) == expected_crc.
  // Returns false without caching when the CRC does not match (the bytes
  // are wire-corrupt), when the payload alone exceeds a shard's budget, or
  // on size 0. An existing entry for (key, offset, length) is replaced,
  // whichever store it came from. `owner` tags the entry for eviction
  // accounting (0 = unowned).
  bool Insert(u64 store_id, const std::string& key, u64 offset, u64 length,
              const u8* data, size_t size, u32 expected_crc, u32 owner = 0);

  // Drops the entry from any store, if present (e.g. after an at-rest
  // corruption verdict).
  void Erase(const std::string& key, u64 offset, u64 length);

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 inserts = 0;
    u64 evictions = 0;
    u64 bytes_evicted = 0;  // payload bytes dropped by LRU eviction
    u64 crc_rejects = 0;
    u64 bytes = 0;     // payload bytes currently cached
    u64 entries = 0;   // entries currently cached
  };
  Stats GetStats() const;

  u64 capacity_bytes() const { return config_.capacity_bytes; }

 private:
  struct Entry {
    std::string composite_key;
    Payload payload;
    u64 store_id = 0;
    u32 owner = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    u64 bytes = 0;
  };
  // An owned entry dropped while the shard mutex was held; the callback
  // fires after the lock is released.
  struct Dropped {
    u32 owner;
    u64 bytes;
  };

  Shard& ShardFor(const std::string& composite_key);
  // Lookup body; a null `store_id` matches an entry from any store.
  Payload Lookup(const u64* store_id, const std::string& key, u64 offset,
                 u64 length);
  // Evicts LRU entries of `shard` (mutex held) until it fits its budget,
  // recording owned victims into `dropped`.
  void EvictLocked(Shard* shard, std::vector<Dropped>* dropped);
  void NotifyDropped(const std::vector<Dropped>& dropped);

  const BlockCacheConfig config_;
  u64 shard_capacity_;
  std::vector<Shard> shards_;
  EvictionCallback eviction_callback_;
};

}  // namespace btr::exec

#endif  // BTR_EXEC_BLOCK_CACHE_H_
