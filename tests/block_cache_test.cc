// Unit tests for the checksum-verified block cache (exec/block_cache.h):
// admission requires the payload to hash to the header CRC32C, entries are
// keyed by exact GET identity (store, key, offset, length), and each shard
// evicts LRU-first under its byte budget. The concurrent test doubles as the
// TSan workload in CI.
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/block_cache.h"
#include "util/buffer.h"
#include "util/crc32c.h"

namespace btr::exec {
namespace {

// ObjectStore::id() of the store the test payloads stand for.
constexpr u64 kStore = 1;

std::vector<u8> MakePayload(size_t size, u8 salt) {
  std::vector<u8> payload(size);
  for (size_t i = 0; i < size; i++) {
    payload[i] = static_cast<u8>((i * 31 + salt) & 0xFF);
  }
  return payload;
}

TEST(BlockCacheTest, RoundTripReturnsTheExactBytes) {
  BlockCache cache;
  std::vector<u8> payload = MakePayload(4096, 7);
  u32 crc = Crc32c(payload.data(), payload.size());

  EXPECT_EQ(cache.LookupShared("lake/t.0.btr", 128, payload.size()), nullptr);
  ASSERT_TRUE(cache.Insert(kStore, "lake/t.0.btr", 128, payload.size(),
                           payload.data(), payload.size(), crc));
  BlockCache::Payload out =
      cache.LookupShared("lake/t.0.btr", 128, payload.size());
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->size(), payload.size());
  EXPECT_EQ(0, std::memcmp(out->data(), payload.data(), payload.size()));

  BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, payload.size());
}

TEST(BlockCacheTest, CorruptPayloadIsRefusedAtAdmission) {
  BlockCache cache;
  std::vector<u8> payload = MakePayload(1024, 3);
  u32 crc = Crc32c(payload.data(), payload.size());
  payload[100] ^= 0x40;  // single bit flip after the checksum was taken

  EXPECT_FALSE(cache.Insert(kStore, "k", 0, payload.size(), payload.data(),
                            payload.size(), crc));
  EXPECT_EQ(cache.LookupShared("k", 0, payload.size()), nullptr)
      << "a corrupt payload must never become a hit";
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(BlockCacheTest, KeyIdentityIncludesOffsetAndLength) {
  BlockCache cache;
  std::vector<u8> a = MakePayload(256, 1);
  std::vector<u8> b = MakePayload(512, 2);
  ASSERT_TRUE(cache.Insert(kStore, "k", 0, a.size(), a.data(), a.size(),
                           Crc32c(a.data(), a.size())));
  ASSERT_TRUE(cache.Insert(kStore, "k", 256, b.size(), b.data(), b.size(),
                           Crc32c(b.data(), b.size())));

  EXPECT_EQ(cache.LookupShared("k", 0, 512), nullptr) << "different length";
  EXPECT_EQ(cache.LookupShared("k", 128, 256), nullptr) << "different offset";
  EXPECT_EQ(cache.LookupShared("other", 0, 256), nullptr) << "different key";
  BlockCache::Payload out = cache.LookupShared("k", 0, 256);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), a.data(), a.size()));
  out = cache.LookupShared("k", 256, 512);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), b.data(), b.size()));
}

// Two stores may hold the same key with different bytes: a lookup scoped
// to one store never returns the other's entry, and the later insert
// replaces the earlier one in their shared slot.
TEST(BlockCacheTest, KeyIdentityIncludesTheStore) {
  BlockCache cache;
  std::vector<u8> a = MakePayload(256, 1);
  std::vector<u8> b = MakePayload(256, 2);
  ASSERT_TRUE(cache.Insert(kStore, "k", 0, 256, a.data(), a.size(),
                           Crc32c(a.data(), a.size())));
  EXPECT_EQ(cache.LookupShared(kStore + 1, "k", 0, 256), nullptr);
  BlockCache::Payload out = cache.LookupShared(kStore, "k", 0, 256);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), a.data(), a.size()));

  ASSERT_TRUE(cache.Insert(kStore + 1, "k", 0, 256, b.data(), b.size(),
                           Crc32c(b.data(), b.size())));
  EXPECT_EQ(cache.LookupShared(kStore, "k", 0, 256), nullptr);
  out = cache.LookupShared(kStore + 1, "k", 0, 256);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), b.data(), b.size()));
  out = cache.LookupShared("k", 0, 256);  // any store
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(0, std::memcmp(out->data(), b.data(), b.size()));
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(BlockCacheTest, ReinsertReplacesInsteadOfDoubleCounting) {
  BlockCache cache;
  std::vector<u8> payload = MakePayload(2048, 9);
  u32 crc = Crc32c(payload.data(), payload.size());
  ASSERT_TRUE(
      cache.Insert(kStore, "k", 0, 2048, payload.data(), payload.size(), crc));
  ASSERT_TRUE(
      cache.Insert(kStore, "k", 0, 2048, payload.data(), payload.size(), crc));
  BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, payload.size());
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedUnderTheShardBudget) {
  // One shard so LRU order is global and deterministic; room for exactly
  // two payloads.
  BlockCacheConfig config;
  config.shards = 1;
  config.capacity_bytes = 2048;
  BlockCache cache(config);

  std::vector<u8> p0 = MakePayload(1024, 0);
  std::vector<u8> p1 = MakePayload(1024, 1);
  std::vector<u8> p2 = MakePayload(1024, 2);
  ASSERT_TRUE(cache.Insert(kStore, "k0", 0, 1024, p0.data(), p0.size(),
                           Crc32c(p0.data(), p0.size())));
  ASSERT_TRUE(cache.Insert(kStore, "k1", 0, 1024, p1.data(), p1.size(),
                           Crc32c(p1.data(), p1.size())));

  // Touch k0 so k1 becomes the LRU victim.
  ASSERT_NE(cache.LookupShared("k0", 0, 1024), nullptr);
  ASSERT_TRUE(cache.Insert(kStore, "k2", 0, 1024, p2.data(), p2.size(),
                           Crc32c(p2.data(), p2.size())));

  EXPECT_NE(cache.LookupShared("k0", 0, 1024), nullptr)
      << "recently used survives";
  EXPECT_EQ(cache.LookupShared("k1", 0, 1024), nullptr) << "LRU entry evicted";
  EXPECT_NE(cache.LookupShared("k2", 0, 1024), nullptr);
  EXPECT_LE(cache.GetStats().bytes, config.capacity_bytes);
}

TEST(BlockCacheTest, OversizedAndEmptyPayloadsAreRejected) {
  BlockCacheConfig config;
  config.shards = 4;
  config.capacity_bytes = 4096;  // 1 KiB per shard
  BlockCache cache(config);

  std::vector<u8> big = MakePayload(2048, 5);  // exceeds any shard budget
  EXPECT_FALSE(cache.Insert(kStore, "k", 0, big.size(), big.data(),
                            big.size(), Crc32c(big.data(), big.size())));
  EXPECT_FALSE(cache.Insert(kStore, "k", 0, 0, big.data(), 0, 0));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(BlockCacheTest, EraseDropsTheEntry) {
  BlockCache cache;
  std::vector<u8> payload = MakePayload(512, 4);
  ASSERT_TRUE(cache.Insert(kStore, "k", 64, 512, payload.data(),
                           payload.size(),
                           Crc32c(payload.data(), payload.size())));
  cache.Erase("k", 64, 512);
  EXPECT_EQ(cache.LookupShared("k", 64, 512), nullptr);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  cache.Erase("k", 64, 512);  // double erase is a no-op
}

// Concurrency hammer: many threads inserting, looking up and erasing
// overlapping keys on a small cache (constant eviction). Run under TSan in
// CI; correctness here is "no data race, no crash, every hit verifies".
TEST(BlockCacheTest, ConcurrentHammerStaysConsistent) {
  BlockCacheConfig config;
  config.shards = 4;
  config.capacity_bytes = 64 * 1024;
  BlockCache cache(config);

  constexpr u32 kThreads = 4;
  constexpr u32 kOpsPerThread = 400;
  constexpr u32 kKeys = 16;

  std::vector<std::vector<u8>> payloads;
  std::vector<u32> crcs;
  for (u32 k = 0; k < kKeys; k++) {
    payloads.push_back(MakePayload(1024 + 64 * k, static_cast<u8>(k)));
    crcs.push_back(Crc32c(payloads[k].data(), payloads[k].size()));
  }

  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (u32 i = 0; i < kOpsPerThread; i++) {
        u32 k = (i * 7 + t) % kKeys;
        const std::vector<u8>& payload = payloads[k];
        std::string key = "obj" + std::to_string(k);
        switch (i % 3) {
          case 0:
            cache.Insert(kStore, key, k, payload.size(), payload.data(),
                         payload.size(), crcs[k]);
            break;
          case 1:
            if (BlockCache::Payload out =
                    cache.LookupShared(key, k, payload.size())) {
              ASSERT_EQ(out->size(), payload.size());
              EXPECT_EQ(Crc32c(out->data(), out->size()), crcs[k])
                  << "a hit must always return verified bytes";
            }
            break;
          case 2:
            if (i % 30 == 2) cache.Erase(key, k, payload.size());
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  BlockCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, config.capacity_bytes);
  for (u32 k = 0; k < kKeys; k++) {
    if (BlockCache::Payload out = cache.LookupShared(
            "obj" + std::to_string(k), k, payloads[k].size())) {
      EXPECT_EQ(Crc32c(out->data(), out->size()), crcs[k]);
    }
  }
}

}  // namespace
}  // namespace btr::exec
