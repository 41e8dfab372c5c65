#include "btr/scanner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "btr/datablock.h"
#include "exec/block_cache.h"
#include "exec/retry.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/scan_service.h"
#include "util/crc32c.h"
#include "util/timer.h"
#include "write/manifest.h"
#include "write/streaming_writer.h"

namespace btr {

namespace {

struct ScanMetrics {
  obs::Counter& row_blocks;
  obs::Counter& blocks_pruned;
  obs::Counter& blocks_skipped;
  obs::Counter& blocks_decoded;
  obs::Counter& blocks_unreadable;
  obs::Counter& rows_matched;
  obs::Counter& crc_failures;
  obs::Counter& crc_refetches;
  obs::Counter& crc_rescues;
  obs::Counter& bytes_fetched;
  obs::Counter& bytes_decoded;

  static ScanMetrics& Get() {
    static ScanMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new ScanMetrics{r.GetCounter("scan.row_blocks"),
                             r.GetCounter("scan.blocks_pruned"),
                             r.GetCounter("scan.blocks_skipped"),
                             r.GetCounter("scan.blocks_decoded"),
                             r.GetCounter("scan.blocks_unreadable"),
                             r.GetCounter("scan.rows_matched"),
                             r.GetCounter("scan.crc_failures"),
                             r.GetCounter("scan.crc_refetches"),
                             r.GetCounter("scan.crc_rescues"),
                             r.GetCounter("scan.bytes_fetched"),
                             r.GetCounter("scan.bytes_decoded")};
    }();
    return *m;
  }
};

exec::RetryPolicy MakeRetryPolicy(const ScanConfig& config) {
  exec::RetryPolicy policy;
  policy.max_attempts = config.max_attempts == 0 ? 1 : config.max_attempts;
  policy.initial_backoff_ns = config.initial_backoff_ns;
  policy.max_backoff_ns = config.max_backoff_ns;
  policy.request_deadline_ns = config.request_deadline_ns;
  policy.retry_budget = config.retry_budget;
  policy.jitter_seed = config.retry_jitter_seed;
  return policy;
}

exec::HedgePolicy MakeHedgePolicy(const ScanConfig& config) {
  exec::HedgePolicy policy;
  policy.enabled = config.enable_hedged_gets;
  policy.quantile = config.hedge_quantile;
  policy.min_samples = config.hedge_min_samples;
  policy.min_threshold_ns = config.hedge_min_threshold_ns;
  policy.hedge_budget = config.hedge_budget;
  policy.latency_window = config.hedge_latency_window;
  return policy;
}

// A standalone Scanner's fetch or decode pool: created on first use and
// kept across Scan() calls, recreated only when the thread count changes.
exec::ThreadPool& EnsurePool(std::unique_ptr<exec::ThreadPool>* pool,
                             u32 threads) {
  if (*pool == nullptr || (*pool)->thread_count() != threads) {
    *pool = std::make_unique<exec::ThreadPool>(threads);
  }
  return **pool;
}

}  // namespace

u32 StandaloneDecodeThreads(const ScanConfig& config) {
  if (config.scan_threads != 0) return config.scan_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

Status UploadCompressedRelation(const CompressedRelation& relation,
                                const TableZoneMap* zones,
                                const std::string& prefix,
                                s3sim::ObjectStore* store) {
  // Thin wrapper over the crash-safe commit protocol: the objects stage
  // under the next version's keys and one manifest Put publishes them.
  // (The old implementation Put the metadata object *first* — a reader
  // racing the upload could open a table whose column objects did not
  // exist yet. The versioned commit makes that window impossible.)
  return write::CommitCompressedRelation(relation, zones, prefix, store);
}

Scanner::Scanner(s3sim::ObjectStore* store, std::string table_name,
                 std::string prefix, const CompressionConfig& config)
    : store_(store),
      table_name_(std::move(table_name)),
      prefix_(std::move(prefix)),
      config_(config) {}

Scanner::Scanner(service::ScanService& service, const std::string& tenant_id,
                 s3sim::ObjectStore* store, std::string table_name,
                 std::string prefix, const CompressionConfig& config)
    : store_(store),
      table_name_(std::move(table_name)),
      prefix_(std::move(prefix)),
      config_(config) {
  service_ = &service;
  tenant_slot_ = service.EnsureTenant(tenant_id);
}

// Out-of-line so scanner.h can hold the pools behind a forward declaration.
Scanner::~Scanner() = default;

Status Scanner::Open(const ScanConfig& config) {
  if (store_ == nullptr) return Status::InvalidArgument("null object store");
  // Metadata-fetch time surfaces as ScanProfile::open_ns on later scans.
  Timer open_timer;
  // Metadata GETs ride the same retry discipline as block fetches: a
  // transiently failing store must not fail Open.
  exec::RetryState retry(MakeRetryPolicy(config));
  auto fetch = [&](const std::string& key, u64 length, std::vector<u8>* out) {
    return exec::RunWithRetries(
        &retry, [&] { return store_->GetChunk(key, 0, length, out); });
  };

  // Resolve which physical table version to read. A table written through
  // the crash-safe write path has a versioned manifest; its committed
  // version pins every key this Open (and later Scans) will touch, so a
  // writer committing concurrently flips future Opens to the new version
  // while this scanner keeps reading the old one — either-old-or-new,
  // never a mix. Tables uploaded before the manifest existed fall back to
  // the bare table name.
  if (store_->Contains(write::ManifestKey(prefix_, table_name_))) {
    write::Manifest manifest;
    BTR_RETURN_IF_ERROR(exec::RunWithRetries(&retry, [&] {
      return write::ReadManifest(store_, prefix_, table_name_, &manifest);
    }));
    if (manifest.committed_version == 0) {
      return Status::NotFound("table has a manifest but no committed version: " +
                              table_name_);
    }
    resolved_name_ = write::VersionedName(table_name_, manifest.committed_version);
  } else {
    resolved_name_ = table_name_;
  }

  const std::string meta_key = TableMetaKey(prefix_, resolved_name_);
  if (!store_->Contains(meta_key)) {
    return Status::NotFound("table metadata object missing: " + meta_key);
  }
  auto fetch_object = [&](const std::string& key, std::vector<u8>* out) {
    u64 object_size = 0;
    BTR_RETURN_IF_ERROR(store_->ObjectSize(key, &object_size));
    return fetch(key, object_size, out);
  };

  // The meta and the zone map do not depend on each other: a helper thread
  // fetches and parses the zone map while this thread fetches the meta, so
  // the two GETs cost one round trip. The helper shares `retry`, which is
  // thread-safe. A std::async future joins its thread when destroyed, so
  // the helper is joined on every path out of Open, exceptions included.
  const std::string zone_key = ZoneMapKey(prefix_, resolved_name_);
  has_zones_ = store_->Contains(zone_key);
  std::future<Status> zone_fetch;
  if (has_zones_) {
    zone_fetch = std::async(std::launch::async, [&] {
      std::vector<u8> zone_blob;
      BTR_RETURN_IF_ERROR(fetch_object(zone_key, &zone_blob));
      return ParseTableZoneMap(zone_blob.data(), zone_blob.size(), &zones_);
    });
  }
  std::vector<u8> blob;
  Status meta_status = fetch_object(meta_key, &blob);
  if (meta_status.ok()) {
    meta_status = ParseTableMeta(blob.data(), blob.size(), &meta_);
  }
  Status zone_status = has_zones_ ? zone_fetch.get() : Status::Ok();
  BTR_RETURN_IF_ERROR(meta_status);
  BTR_RETURN_IF_ERROR(zone_status);
  if (has_zones_ && zones_.columns.size() != meta_.columns.size()) {
    return Status::Corruption("zone map column count mismatch");
  }

  // Block payload offsets for the ranged GETs Scan() issues, from the
  // meta's per-block sizes. A version-1 meta has no framing: one small
  // ranged GET per column reads it from the column's "BTRC" header.
  block_offsets_.assign(meta_.columns.size(), {});
  for (size_t c = 0; c < meta_.columns.size(); c++) {
    TableMeta::ColumnMeta& column = meta_.columns[c];
    const std::string key = ColumnFileKey(prefix_, resolved_name_, c);
    u64 object_size = 0;
    if (!store_->ObjectSize(key, &object_size).ok()) {
      return Status::NotFound("column object missing: " + key);
    }
    u64 block_count = column.block_value_counts.size();
    u64 header_bytes = ColumnFileHeaderBytes(block_count);
    if (!meta_.has_block_framing) {
      BTR_RETURN_IF_ERROR(fetch(key, header_bytes, &blob));
      BTR_RETURN_IF_ERROR(ParseColumnFileHeader(
          blob.data(), blob.size(), &column.block_sizes, &column.block_crcs));
      if (column.block_sizes.size() != block_count) {
        return Status::Corruption("metadata/column block count mismatch: " +
                                  key);
      }
    }
    std::vector<u64>& offsets = block_offsets_[c];
    offsets.resize(block_count + 1);
    offsets[0] = header_bytes;
    for (u64 b = 0; b < block_count; b++) {
      offsets[b + 1] = offsets[b] + column.block_sizes[b];
    }
    // Framing that disagrees with the object would send block GETs past
    // its end; it is corrupt metadata, caught here without a GET.
    if (offsets[block_count] != object_size) {
      return Status::Corruption("block framing does not match the size of " +
                                key);
    }
  }
  opened_ = true;
  open_ns_ = static_cast<u64>(open_timer.ElapsedNanos());
  return Status::Ok();
}

struct Scanner::ResolvedSpec {
  std::vector<u32> projection;  // table column indices, output order
  std::vector<u32> needed;      // union of projection + filter columns
  // Position of each projection entry inside `needed`.
  std::vector<u32> projection_pos;
  // Resolved filter: spec.filter with integer leaves on double columns
  // coerced. Empty() = no filtering.
  PredicateExpr filter;
  // Filter column name -> position inside `needed`.
  std::unordered_map<std::string, u32> filter_pos;
  u32 leaf_count = 0;                   // depth-first leaves of `filter`
  std::vector<std::string> leaf_names;  // leaf ToString(), same order
  u32 row_blocks = 0;
  std::vector<u32> block_rows;  // values per row block
};

namespace {

// Rebuilds an integer leaf as the equivalent double leaf (the raw operands
// survive in the expression, so `x < 5` on a double column becomes
// `x < 5.0` losslessly; IN sets are re-sorted into bit-pattern order by
// the factory).
PredicateExpr CoerceIntLeafToDouble(const PredicateExpr& leaf) {
  switch (leaf.op) {
    case CompareOp::kEq:
      return PredicateExpr::EqualsDouble(leaf.column, leaf.int_lo);
    case CompareOp::kBetween:
      return PredicateExpr::BetweenDouble(leaf.column, leaf.int_lo,
                                          leaf.int_hi);
    case CompareOp::kIn: {
      std::vector<double> values(leaf.int_set.begin(), leaf.int_set.end());
      return PredicateExpr::InDouble(leaf.column, std::move(values));
    }
    default:
      return PredicateExpr::CompareDouble(leaf.column, leaf.op, leaf.int_lo);
  }
}

}  // namespace

Status Scanner::ResolveSpec(const ScanSpec& spec, ResolvedSpec* out) const {
  if (!opened_) return Status::InvalidArgument("Scanner::Open() not called");

  auto find_column = [this](const std::string& name, u32* index) {
    for (size_t c = 0; c < meta_.columns.size(); c++) {
      if (meta_.columns[c].name == name) {
        *index = static_cast<u32>(c);
        return true;
      }
    }
    return false;
  };

  if (spec.columns.empty()) {
    for (size_t c = 0; c < meta_.columns.size(); c++) {
      out->projection.push_back(static_cast<u32>(c));
    }
  } else {
    for (const std::string& name : spec.columns) {
      u32 index;
      if (!find_column(name, &index)) {
        return Status::NotFound("projection column not found: " + name);
      }
      out->projection.push_back(index);
    }
  }

  auto needed_pos = [out](u32 table_index) {
    for (size_t i = 0; i < out->needed.size(); i++) {
      if (out->needed[i] == table_index) return static_cast<u32>(i);
    }
    out->needed.push_back(table_index);
    return static_cast<u32>(out->needed.size() - 1);
  };
  for (u32 index : out->projection) {
    out->projection_pos.push_back(needed_pos(index));
  }

  out->filter = spec.filter;

  // Resolve every leaf: the column must exist, its type must match (or be
  // coercible int -> double), and its block bytes must be fetched.
  Status leaf_status = Status::Ok();
  std::function<void(PredicateExpr&)> resolve = [&](PredicateExpr& node) {
    if (!leaf_status.ok()) return;
    if (node.kind != PredicateExpr::Kind::kLeaf) {
      for (PredicateExpr& child : node.children) resolve(child);
      return;
    }
    u32 index;
    if (!find_column(node.column, &index)) {
      leaf_status = Status::NotFound("predicate column not found: " +
                                     node.column);
      return;
    }
    ColumnType column_type = meta_.columns[index].type;
    if (column_type != node.type) {
      if (node.type == ColumnType::kInteger &&
          column_type == ColumnType::kDouble) {
        node = CoerceIntLeafToDouble(node);
      } else {
        leaf_status = Status::InvalidArgument(
            "predicate type does not match column type: " + node.column);
        return;
      }
    }
    out->filter_pos.emplace(node.column, needed_pos(index));
  };
  resolve(out->filter);
  BTR_RETURN_IF_ERROR(leaf_status);
  out->filter.ForEachLeaf([&](const PredicateExpr& leaf) {
    out->leaf_count++;
    out->leaf_names.push_back(leaf.ToString());
  });

  // Every column blocks its rows identically (kBlockCapacity), so all
  // needed columns must agree on the block structure.
  if (!out->needed.empty()) {
    const std::vector<u32>& reference =
        meta_.columns[out->needed[0]].block_value_counts;
    for (u32 index : out->needed) {
      if (meta_.columns[index].block_value_counts != reference) {
        return Status::Corruption("columns disagree on block structure");
      }
    }
    out->row_blocks = static_cast<u32>(reference.size());
    out->block_rows = reference;
  }
  return Status::Ok();
}

namespace {

// Everything one row block produced, moved from the decode worker to the
// emitting thread through the reorder buffer.
struct BlockResult {
  BlockOutcome outcome = BlockOutcome::kDecoded;
  RoaringBitmap selection;
  std::vector<DecodedBlock> decoded;  // by projection position (kDecoded only)
  Status error;  // why the block is kUnreadable (degraded mode only)
};

// One entry of the fetch plan: the run of adjacent, unpruned row blocks
// [first_block, first_block + block_count) of the needed column at
// position `pos`, fetched by one ranged GET and split into per-block
// payloads. The block offsets, sizes and CRCs come from the table meta.
struct FetchRange {
  std::string key;
  u32 pos = 0;
  u32 first_block = 0;
  u32 block_count = 0;
  u64 length = 0;  // total bytes of the blocks
};

// Fetched column blocks of one row block, awaiting completion. A part
// whose fetch failed permanently still counts toward `filled` (its status
// lands in `error`) so the bundle always completes and the emitter never
// waits on a block that cannot arrive. Parts are the block cache's
// refcounted payloads: a cache hit shares the cached buffer instead of
// copying it.
struct Bundle {
  std::vector<exec::BlockCache::Payload> parts;  // by needed-column position
  u32 filled = 0;
  Status error;  // first fetch failure of this row block
};

}  // namespace

Status Scanner::Scan(const ScanSpec& spec, const ChunkCallback& emit,
                     ScanStats* stats_out) {
  BTR_TRACE_SPAN("scan.pipeline");
  Timer timer;
  ResolvedSpec resolved;
  BTR_RETURN_IF_ERROR(ResolveSpec(spec, &resolved));

  // Serviced scans pass admission control before any other work: a
  // saturated service or an over-quota tenant surfaces here as typed
  // Status::Throttled (transient — callers may wrap Scan in
  // exec::RunWithRetries and back off).
  service::ScanService::Ticket ticket;
  u64 admission_wait_ns = 0;
  if (service_ != nullptr) {
    BTR_RETURN_IF_ERROR(
        service_->Admit(tenant_slot_, &ticket, &admission_wait_ns));
  }
  // Every return below must give the admission slot back.
  struct TicketGuard {
    service::ScanService* service;
    service::ScanService::Ticket* ticket;
    ~TicketGuard() {
      if (service != nullptr) service->Release(ticket);
    }
  } ticket_guard{service_, &ticket};
  (void)ticket_guard;

  // Per-scan profile. Null when disabled: every instrumentation site
  // below tests this pointer and records nothing — no locks, no
  // allocation, no clock reads on the disabled path.
  std::unique_ptr<obs::ScanProfileCollector> collector;
  if (spec.config.collect_profile) {
    collector = std::make_unique<obs::ScanProfileCollector>(
        spec.config.profile_slow_ops);
    collector->SetOpenNanos(open_ns_);
  }
  obs::ScanProfileCollector* profile = collector.get();
  obs::StageTimer stage_timer;  // calling-thread stages; starts in kPlan

  ScanStats stats;
  stats.row_blocks = resolved.row_blocks;
  ScanMetrics& metrics = ScanMetrics::Get();
  metrics.row_blocks.Add(resolved.row_blocks);

  // --- stage 0: zone-map pruning -------------------------------------------
  // A row block is pruned when the whole filter expression proves it
  // empty: AND prunes when any conjunct does, OR only when all disjuncts
  // do (ZoneMayMatch walks the tree). Disabled together with pushdown so
  // the decode-then-filter baseline really fetches and decodes everything.
  const bool has_filter = !resolved.filter.Empty();
  const bool pushdown = spec.config.enable_predicate_pushdown;
  Timer prune_timer;
  std::vector<u8> pruned(resolved.row_blocks, 0);
  std::vector<u64> leaf_zone_prunes(resolved.leaf_count, 0);
  if (has_zones_ && has_filter && pushdown) {
    for (u32 b = 0; b < resolved.row_blocks; b++) {
      auto zone_of = [&](const std::string& name) -> const BlockZone* {
        auto it = resolved.filter_pos.find(name);
        if (it == resolved.filter_pos.end()) return nullptr;
        const ColumnZoneMap& zones = zones_.columns[resolved.needed[it->second]];
        return b < zones.zones.size() ? &zones.zones[b] : nullptr;
      };
      if (!ZoneMayMatch(resolved.filter, zone_of)) {
        pruned[b] = 1;
        // Attribute the prune to every leaf that alone proves the block
        // empty (ScanStats::predicate_leaves).
        u32 leaf = 0;
        resolved.filter.ForEachLeaf([&](const PredicateExpr& l) {
          const BlockZone* zone = zone_of(l.column);
          if (zone != nullptr && !ZoneMayMatchLeaf(*zone, l)) {
            leaf_zone_prunes[leaf]++;
          }
          leaf++;
        });
      }
    }
  }
  if (profile != nullptr) {
    profile->SetZonePruneNanos(static_cast<u64>(prune_timer.ElapsedNanos()));
  }

  // --- stage 1: fetch plan ---------------------------------------------------
  // Each needed column's unpruned blocks split into ranges: runs of
  // adjacent blocks within kFetchRangeBytes. A pruned block ends a range,
  // so no byte of a gap is read. Ranges are ordered by first block, then
  // column position, so one row block's parts are fetched adjacently and
  // bundles complete close to their emission order. `range_of` maps
  // (block, position) to the range carrying that part.
  const u32 needed_count = static_cast<u32>(resolved.needed.size());
  std::vector<FetchRange> ranges;
  std::vector<u32> range_of(size_t{resolved.row_blocks} * needed_count, 0);
  for (u32 pos = 0; pos < needed_count; pos++) {
    const u32 column = resolved.needed[pos];
    const std::vector<u64>& offsets = block_offsets_[column];
    for (u32 b = 0; b < resolved.row_blocks; b++) {
      if (pruned[b]) continue;
      const u64 size = offsets[b + 1] - offsets[b];
      const bool extends = !ranges.empty() && ranges.back().pos == pos &&
                           ranges.back().first_block +
                                   ranges.back().block_count == b &&
                           ranges.back().length + size <= kFetchRangeBytes;
      if (extends) {
        ranges.back().block_count++;
        ranges.back().length += size;
        continue;
      }
      FetchRange range;
      range.key = ColumnFileKey(prefix_, resolved_name_, column);
      range.pos = pos;
      range.first_block = b;
      range.block_count = 1;
      range.length = size;
      ranges.push_back(std::move(range));
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const FetchRange& a, const FetchRange& b) {
              return a.first_block != b.first_block
                         ? a.first_block < b.first_block
                         : a.pos < b.pos;
            });
  // Blocks of each range that have not started decoding; the range's
  // window token comes back when this reaches zero. Guarded by `mutex`.
  std::vector<u32> range_blocks_left(ranges.size());
  for (u32 r = 0; r < ranges.size(); r++) {
    range_blocks_left[r] = ranges[r].block_count;
    for (u32 i = 0; i < ranges[r].block_count; i++) {
      range_of[size_t{ranges[r].first_block + i} * needed_count +
               ranges[r].pos] = r;
    }
  }

  // --- shared scan state -----------------------------------------------------
  std::mutex mutex;
  // One condition for every wait on `mutex`: the emitter waiting on the
  // reorder buffer, retry backoff sleeps, and the final quiesce.
  std::condition_variable cv;
  std::map<u32, BlockResult> ready;              // reorder buffer
  std::unordered_map<u32, Bundle> assembling;    // incomplete bundles
  Status first_error;
  bool failed = false;

  const bool degraded = spec.config.skip_unreadable_blocks;
  const bool serviced = service_ != nullptr;

  // Resilience attachments are the service's: one CRC-verified cache for
  // every tenant and one breaker per backend, so a dead store fails fast
  // for everyone. A standalone scan has neither, so every part is a GET.
  exec::BlockCache* active_cache = serviced ? service_->cache() : nullptr;
  exec::CircuitBreaker* breaker =
      serviced ? service_->BreakerFor(store_) : nullptr;
  // The shared breaker's lifetime counters move under concurrent scans, so
  // per-scan stats report deltas (approximate under concurrency).
  const u64 base_breaker_trips = breaker != nullptr ? breaker->trips() : 0;
  const u64 base_breaker_fast =
      breaker != nullptr ? breaker->fast_failures() : 0;

  // Cache inserts go through the tenant's cache-byte quota.
  auto cache_insert = [&](const std::string& key, u64 offset, u64 length,
                          const u8* data, size_t size, u32 expected_crc) {
    if (!serviced) return;
    service_->TryCacheInsert(tenant_slot_, store_->id(), key, offset, length,
                             data, size, expected_crc);
  };

  // Wakes the emitter and any backoff sleeper, so in-flight items bail
  // fast and the scan unwinds.
  auto fail = [&](Status status) {
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!failed) {
        failed = true;
        first = true;
        first_error = std::move(status);
      }
    }
    // Mark the failure point in the trace so an aborted scan's spans are
    // diagnosable — the RAII spans themselves flush normally on unwind.
    if (first) BTR_TRACE_INSTANT("scan.error");
    cv.notify_all();
  };

  // CRC-refetch accounting (ScanStats::crc_refetches / crc_rescues);
  // atomics because process_bundle runs on the decode workers.
  std::atomic<u64> crc_refetch_count{0};
  std::atomic<u64> crc_rescue_count{0};
  std::atomic<u64> bytes_decoded_count{0};
  // Every GET this scan sends to the store and the payload bytes the
  // successful ones return (ScanStats::requests / bytes_fetched). Counted
  // per item rather than as store deltas, so concurrent scans on one
  // store never see each other's traffic.
  std::atomic<u64> get_count{0};
  std::atomic<u64> get_bytes{0};
  // Per-leaf fast-path/materialized tallies, merged from the decode
  // workers' per-block LeafEvalStats (ScanStats::predicate_leaves).
  std::vector<std::atomic<u64>> leaf_fast_count(resolved.leaf_count);
  std::vector<std::atomic<u64>> leaf_materialized_count(resolved.leaf_count);

  // Decodes one complete bundle into a BlockResult. Runs on a worker.
  auto process_bundle = [&](u32 b, Bundle& bundle,
                            BlockResult* result) -> Status {
    u32 expected_rows = resolved.block_rows[b];
    Timer validate_timer;
    for (u32 pos = 0; pos < needed_count; pos++) {
      if (bundle.parts[pos] == nullptr) {
        return Status::Internal("block " + std::to_string(b) +
                                " arrived without part " + std::to_string(pos));
      }
      const ByteBuffer* part = bundle.parts[pos].get();
      u32 column = resolved.needed[pos];
      // Integrity first: the payload must be exactly the bytes the table
      // metadata promised. Catches truncated ranges (size) and flipped bits
      // (CRC32C) before any parsing logic sees the data.
      u64 expected_size =
          block_offsets_[column][b + 1] - block_offsets_[column][b];
      const u32 expected_crc = meta_.columns[column].block_crcs[b];
      if (part->size() != expected_size ||
          Crc32c(part->data(), part->size()) != expected_crc) {
        metrics.crc_failures.Add();
        // The mismatch may be transient wire corruption rather than
        // at-rest damage: re-fetch the range once, straight from the store
        // (a direct GET cannot be served by the cache), and re-verify
        // before giving up on the block.
        bool rescued = false;
        if (spec.config.refetch_on_crc_failure) {
          metrics.crc_refetches.Add();
          crc_refetch_count.fetch_add(1, std::memory_order_relaxed);
          const std::string key = ColumnFileKey(prefix_, resolved_name_, column);
          std::vector<u8> fresh;
          Status refetch = store_->GetChunk(key, block_offsets_[column][b],
                                            expected_size, &fresh);
          get_count.fetch_add(1, std::memory_order_relaxed);
          if (refetch.ok()) {
            get_bytes.fetch_add(fresh.size(), std::memory_order_relaxed);
          }
          if (refetch.ok() && fresh.size() == expected_size &&
              Crc32c(fresh.data(), fresh.size()) == expected_crc) {
            auto repaired = std::make_shared<ByteBuffer>();
            repaired->Append(fresh.data(), fresh.size());
            bundle.parts[pos] = std::move(repaired);
            part = bundle.parts[pos].get();
            // The verified bytes are exactly what the cache wants; the
            // corrupt ones were already refused at admission.
            cache_insert(key, block_offsets_[column][b], expected_size,
                         fresh.data(), fresh.size(), expected_crc);
            metrics.crc_rescues.Add();
            crc_rescue_count.fetch_add(1, std::memory_order_relaxed);
            rescued = true;
          }
          if (profile != nullptr) profile->AddCrcRefetch(rescued);
        }
        if (!rescued) {
          return Status::Corruption(
              "block " + std::to_string(b) + " of column " +
              meta_.columns[column].name + " failed CRC verification");
        }
      }
      ColumnType type = meta_.columns[column].type;
      BTR_RETURN_IF_ERROR(
          ValidateBlock(part->data(), part->size(), type, expected_rows));
    }
    if (profile != nullptr) {
      profile->AddActivity(obs::ScanActivity::kValidate,
                           static_cast<u64>(validate_timer.ElapsedNanos()),
                           needed_count);
    }

    if (has_filter) {
      BTR_TRACE_SPAN("scan.predicate");
      Timer predicate_timer;
      if (pushdown) {
        // Evaluate on the compressed form; only surviving blocks reach
        // DecompressBlock below (decode-only-survivors).
        std::vector<LeafEvalStats> leaf_stats(resolved.leaf_count);
        auto block_of = [&](const std::string& name) -> const u8* {
          auto it = resolved.filter_pos.find(name);
          return it == resolved.filter_pos.end()
                     ? nullptr
                     : bundle.parts[it->second]->data();
        };
        EvalResult evaluated = EvaluateExpr(resolved.filter, expected_rows,
                                            block_of, config_, &leaf_stats);
        result->selection = std::move(evaluated.pass);
        for (u32 leaf = 0; leaf < resolved.leaf_count; leaf++) {
          leaf_fast_count[leaf].fetch_add(leaf_stats[leaf].fast_path,
                                          std::memory_order_relaxed);
          leaf_materialized_count[leaf].fetch_add(
              leaf_stats[leaf].materialized, std::memory_order_relaxed);
        }
      } else {
        // Decode-then-filter baseline: materialize every filter column,
        // then run the reference row-at-a-time evaluation.
        std::unordered_map<std::string, DecodedBlock> decoded_filter;
        for (const auto& [name, pos] : resolved.filter_pos) {
          DecompressBlock(bundle.parts[pos]->data(), &decoded_filter[name],
                          config_);
        }
        EvalResult evaluated = EvaluateExprDecoded(
            resolved.filter, expected_rows,
            [&](const std::string& name) -> const DecodedBlock* {
              auto it = decoded_filter.find(name);
              return it == decoded_filter.end() ? nullptr : &it->second;
            });
        result->selection = std::move(evaluated.pass);
        for (u32 leaf = 0; leaf < resolved.leaf_count; leaf++) {
          leaf_materialized_count[leaf].fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (profile != nullptr) {
        profile->AddActivity(obs::ScanActivity::kPredicate,
                             static_cast<u64>(predicate_timer.ElapsedNanos()),
                             resolved.leaf_count);
      }
      if (result->selection.Empty()) {
        result->outcome = BlockOutcome::kSkipped;
        return Status::Ok();
      }
    }

    BTR_TRACE_SPAN("scan.decode");
    result->decoded.resize(resolved.projection.size());
    for (size_t p = 0; p < resolved.projection.size(); p++) {
      const ByteBuffer& part = *bundle.parts[resolved.projection_pos[p]];
      u32 column = resolved.projection[p];
      if (profile != nullptr) {
        Timer decode_timer;
        DecompressBlock(part.data(), &result->decoded[p], config_);
        obs::DecodeRecord record;
        record.column = &meta_.columns[column].name;
        record.offset = block_offsets_[column][b];
        record.length = part.size();
        record.duration_ns = static_cast<u64>(decode_timer.ElapsedNanos());
        record.bytes_decoded = result->decoded[p].ValueBytes();
        record.block = b;
        record.scheme = PeekBlockScheme(part.data());
        record.type = static_cast<u8>(meta_.columns[column].type);
        profile->RecordDecode(record);
      } else {
        DecompressBlock(part.data(), &result->decoded[p], config_);
      }
      bytes_decoded_count.fetch_add(result->decoded[p].ValueBytes(),
                                    std::memory_order_relaxed);
    }
    return Status::Ok();
  };
  // Every non-pruned block goes through the reorder buffer exactly once:
  // kDecoded, kSkipped, and — in degraded mode — kUnreadable, so the
  // emitter always sees block b eventually and never waits forever.
  auto process_and_publish = [&](u32 b, Bundle&& bundle) {
    BlockResult result;
    Status status = bundle.error.ok() ? process_bundle(b, bundle, &result)
                                      : bundle.error;
    if (!status.ok()) {
      if (!degraded) {
        fail(std::move(status));
        return;
      }
      result = BlockResult();
      result.outcome = BlockOutcome::kUnreadable;
      result.error = std::move(status);
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      ready.emplace(b, std::move(result));
    }
    cv.notify_all();
  };

  // --- stage 2: fetch and decode items --------------------------------------
  // The executors are the only part that depends on the mode. Standalone:
  // two private pools, persistent across Scan() calls. Serviced: the
  // service's shared executors, under this tenant's fair-queue lanes.
  std::function<void(u64, std::function<void()>)> submit_fetch;
  std::function<void(u64, std::function<void()>)> submit_decode;
  if (serviced) {
    submit_fetch = [&](u64 cost, std::function<void()> item) {
      service_->SubmitFetch(tenant_slot_, cost, std::move(item));
    };
    submit_decode = [&](u64 cost, std::function<void()> item) {
      service_->SubmitDecode(tenant_slot_, cost, std::move(item));
    };
  } else {
    exec::ThreadPool& fetch_pool =
        EnsurePool(&fetch_pool_, std::max(1u, spec.config.fetch_threads));
    exec::ThreadPool& decode_pool =
        EnsurePool(&decode_pool_, StandaloneDecodeThreads(spec.config));
    submit_fetch = [&fetch_pool](u64, std::function<void()> item) {
      fetch_pool.Submit(std::move(item));
    };
    submit_decode = [&decode_pool](u64, std::function<void()> item) {
      decode_pool.Submit(std::move(item));
    };
  }

  // Backpressure is window tokens, counted in ranges: a range takes one
  // token when its fetch item is submitted and gives it back when the last
  // row block it carries starts decoding, so decode time never throttles
  // GET concurrency. Tokens are only taken before submitting, never while
  // holding an executor thread, so no item ever blocks on another (no
  // cross-tenant head-of-line blocking on service executors). Ranges are
  // submitted in (first block, position) order, so while the oldest
  // unassembled row block still misses a range, only the ranges that carry
  // that block in the other needed_count - 1 columns can hold tokens that
  // wait on more fetches. The window is prefetch_depth ranges of lookahead
  // plus room for those, so a row block can always assemble.
  exec::RetryState retry(MakeRetryPolicy(spec.config));
  exec::HedgeState hedge(MakeHedgePolicy(spec.config));
  exec::StragglerSink stragglers;
  std::function<bool()> hedge_gate;
  if (serviced) {
    // A serviced hedge must also fit the tenant's hedge budget.
    hedge_gate = [&] { return service_->TryAcquireTenantHedge(tenant_slot_); };
  }
  u64 window_tokens =
      u64{std::max<u32>(1, spec.config.prefetch_depth)} + needed_count - 1;
  size_t next_range = 0;  // next index into `ranges`; guarded by mutex
  u64 outstanding = 0;    // submitted items not yet finished; guarded
  std::atomic<u64> cache_hits{0};
  std::atomic<u64> cache_misses{0};

  // Interruptible retry backoff: the sleeper wakes the moment the scan
  // fails.
  auto backoff_sleep = [&](u64 backoff_ns) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::nanoseconds(backoff_ns),
                [&] { return failed; });
    return !failed;
  };
  auto finish_item = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    if (--outstanding == 0) cv.notify_all();
  };
  // Executor threads must survive anything an item throws: the exception
  // becomes the scan's Status.
  auto guarded = [&](const std::function<void()>& body) {
    try {
      body();
    } catch (const std::exception& e) {
      fail(Status::Internal(std::string("scan worker threw: ") + e.what()));
    } catch (...) {
      fail(Status::Internal("scan worker threw a non-std exception"));
    }
  };

  std::function<void()> pump;

  auto run_decode_item = [&](u32 b, const std::shared_ptr<Bundle>& bundle) {
    bool bail;
    {
      std::lock_guard<std::mutex> lock(mutex);
      bail = failed;
      if (!bail) {
        for (u32 pos = 0; pos < needed_count; pos++) {
          u32 r = range_of[size_t{b} * needed_count + pos];
          if (--range_blocks_left[r] == 0) window_tokens++;
        }
      }
    }
    if (!bail) {
      guarded([&] {
        pump();
        process_and_publish(b, std::move(*bundle));
      });
    }
    finish_item();
  };

  // One ranged GET, with retries and hedging, of blocks [begin, end) of
  // `range`. On success each block gets its slice of the response as its
  // own payload; a short response leaves the blocks past its end short or
  // empty, and process_bundle's size check catches them. On failure every
  // block of the run carries the status.
  auto get_run = [&](const FetchRange& range, u32 begin, u32 end,
                     std::vector<exec::BlockCache::Payload>* parts,
                     std::vector<Status>* errors) {
    const u32 column = resolved.needed[range.pos];
    const std::vector<u64>& offsets = block_offsets_[column];
    const u64 run_offset = offsets[range.first_block + begin];
    const u64 run_length = offsets[range.first_block + end] - run_offset;
    std::vector<u8> chunk;
    exec::GetTally tally;
    exec::RetryOutcome outcome;
    Timer get_timer;
    Status status;
    {
      BTR_TRACE_SPAN("scan.fetch");
      // Transient failures retry with interruptible backoff; permanent
      // ones (and exhausted retries) become the run's status. The
      // breaker, when installed, can fail the request fast instead.
      status = exec::RunWithRetries(
          &retry,
          [&] {
            return exec::HedgedGet(store_, range.key, run_offset, run_length,
                                   &hedge, &stragglers, &chunk, &tally,
                                   hedge_gate);
          },
          backoff_sleep, breaker, &outcome);
    }
    get_count.fetch_add(tally.gets, std::memory_order_relaxed);
    get_bytes.fetch_add(tally.bytes, std::memory_order_relaxed);
    if (profile != nullptr) {
      obs::FetchRecord record;
      record.key = &range.key;
      record.offset = run_offset;
      record.length = run_length;
      record.blocks = end - begin;
      record.duration_ns = static_cast<u64>(get_timer.ElapsedNanos());
      record.attempts = std::max<u32>(1, outcome.attempts);
      record.retries = outcome.retries;
      record.cacheable = active_cache != nullptr;
      record.hedged = tally.hedges > 0;
      record.hedge_won = tally.hedge_won;
      record.breaker_rejected = outcome.breaker_rejected;
      record.ok = status.ok();
      profile->RecordFetch(record);
    }
    if (!status.ok()) {
      for (u32 i = begin; i < end; i++) (*errors)[i] = status;
      return;
    }
    if (serviced) {
      service_->RecordFetchOutcome(tenant_slot_, /*cache_hit=*/false,
                                   end - begin, chunk.size(), tally.gets,
                                   tally.hedges > 0);
    }
    for (u32 i = begin; i < end; i++) {
      const u32 b = range.first_block + i;
      const u64 from = std::min<u64>(offsets[b] - run_offset, chunk.size());
      const u64 to = std::min<u64>(offsets[b + 1] - run_offset, chunk.size());
      auto buffer = std::make_shared<ByteBuffer>();
      buffer->Append(chunk.data() + from, to - from);
      // Verified admission: a corrupt or short payload is refused here
      // and fails the size/CRC check in process_bundle.
      cache_insert(range.key, offsets[b], offsets[b + 1] - offsets[b],
                   buffer->data(), buffer->size(),
                   meta_.columns[column].block_crcs[b]);
      (*parts)[i] = std::move(buffer);
    }
  };

  // Resolves one range — per-block shared cache hits, then one GET per
  // run of adjacent misses — and hands every row block it completes to
  // the decode executor.
  auto fetch_range = [&](const FetchRange& range) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (failed) return;
    }
    const u32 column = resolved.needed[range.pos];
    const std::vector<u64>& offsets = block_offsets_[column];
    std::vector<exec::BlockCache::Payload> parts(range.block_count);
    std::vector<Status> errors(range.block_count);
    if (active_cache != nullptr) {
      // Cache hits: the bundle references the cached buffer directly —
      // zero copies, zero GETs.
      u64 hits = 0;
      for (u32 i = 0; i < range.block_count; i++) {
        const u32 b = range.first_block + i;
        parts[i] = active_cache->LookupShared(store_->id(), range.key,
                                              offsets[b],
                                              offsets[b + 1] - offsets[b]);
        if (parts[i] == nullptr) continue;
        hits++;
        if (profile != nullptr) {
          obs::FetchRecord record;
          record.key = &range.key;
          record.offset = offsets[b];
          record.length = offsets[b + 1] - offsets[b];
          record.cacheable = true;
          record.cache_hit = true;
          profile->RecordFetch(record);
        }
      }
      cache_hits.fetch_add(hits, std::memory_order_relaxed);
      cache_misses.fetch_add(range.block_count - hits,
                             std::memory_order_relaxed);
      if (hits > 0) {
        service_->RecordFetchOutcome(tenant_slot_, /*cache_hit=*/true, hits,
                                     /*bytes=*/0, /*gets=*/0,
                                     /*hedged=*/false);
      }
    }
    for (u32 begin = 0; begin < range.block_count;) {
      if (parts[begin] != nullptr) {
        begin++;
        continue;
      }
      u32 end = begin + 1;
      while (end < range.block_count && parts[end] == nullptr) end++;
      get_run(range, begin, end, &parts, &errors);
      begin = end;
    }

    // A block whose fetch failed permanently still completes its bundle
    // (with the status in Bundle::error), so the emitter never waits on a
    // block that cannot arrive.
    std::vector<std::pair<u32, std::shared_ptr<Bundle>>> complete;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (failed) return;
      for (u32 i = 0; i < range.block_count; i++) {
        const u32 b = range.first_block + i;
        Bundle& bundle = assembling[b];
        if (bundle.parts.empty()) bundle.parts.resize(needed_count);
        if (!errors[i].ok() && bundle.error.ok()) bundle.error = errors[i];
        bundle.parts[range.pos] = std::move(parts[i]);
        if (++bundle.filled == needed_count) {
          complete.emplace_back(b, std::make_shared<Bundle>(std::move(bundle)));
          assembling.erase(b);
          outstanding++;  // the decode item submitted just below
        }
      }
    }
    for (auto& [b, bundle] : complete) {
      u64 cost = 0;
      for (const exec::BlockCache::Payload& part : bundle->parts) {
        if (part != nullptr) cost += part->size();
      }
      submit_decode(cost, [&, b = b, bundle = std::move(bundle)] {
        run_decode_item(b, bundle);
      });
    }
  };

  pump = [&] {
    std::vector<size_t> to_submit;
    {
      std::lock_guard<std::mutex> lock(mutex);
      while (!failed && window_tokens > 0 && next_range < ranges.size()) {
        window_tokens--;
        outstanding++;
        to_submit.push_back(next_range++);
      }
    }
    for (size_t i : to_submit) {
      // prefetch_wait: how long the item queues before a fetch executor
      // starts it (no clock read when profiling is off).
      std::chrono::steady_clock::time_point submitted{};
      if (profile != nullptr) submitted = std::chrono::steady_clock::now();
      submit_fetch(ranges[i].length, [&, i, submitted] {
        if (profile != nullptr) {
          auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - submitted);
          profile->AddActivity(obs::ScanActivity::kPrefetchWait,
                               static_cast<u64>(waited.count()));
        }
        guarded([&] { fetch_range(ranges[i]); });
        finish_item();
      });
    }
  };

  // --- stage 3: in-order emission on the calling thread ---------------------
  auto emit_loop = [&] {
    for (u32 b = 0; b < resolved.row_blocks; b++) {
      if (pruned[b]) {
        if (profile != nullptr) stage_timer.Enter(obs::ScanStage::kEmit);
        stats.blocks_pruned++;
        metrics.blocks_pruned.Add();
        for (size_t p = 0; p < resolved.projection.size(); p++) {
          ColumnChunk chunk;
          chunk.column = static_cast<u32>(p);
          chunk.block = b;
          chunk.row_begin = BlockRowBegin(b);
          chunk.row_count = resolved.block_rows[b];
          chunk.outcome = BlockOutcome::kPruned;
          emit(std::move(chunk));
        }
        continue;
      }
      BlockResult result;
      {
        if (profile != nullptr) stage_timer.Enter(obs::ScanStage::kEmitWait);
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return failed || ready.count(b) != 0; });
        if (failed) break;
        result = std::move(ready[b]);
        ready.erase(b);
      }
      if (profile != nullptr) stage_timer.Enter(obs::ScanStage::kEmit);
      u64 block_matches = has_filter ? result.selection.Cardinality()
                                     : resolved.block_rows[b];
      if (result.outcome == BlockOutcome::kSkipped) {
        stats.blocks_skipped++;
        metrics.blocks_skipped.Add();
      } else if (result.outcome == BlockOutcome::kUnreadable) {
        stats.blocks_unreadable++;
        metrics.blocks_unreadable.Add();
        stats.unreadable_blocks.push_back(b);
        stats.unreadable_reasons.push_back(result.error);
      } else {
        stats.blocks_decoded++;
        metrics.blocks_decoded.Add();
        stats.rows_matched += block_matches;
        metrics.rows_matched.Add(block_matches);
      }
      for (size_t p = 0; p < resolved.projection.size(); p++) {
        ColumnChunk chunk;
        chunk.column = static_cast<u32>(p);
        chunk.block = b;
        chunk.row_begin = BlockRowBegin(b);
        chunk.row_count = resolved.block_rows[b];
        chunk.outcome = result.outcome;
        if (result.outcome == BlockOutcome::kDecoded) {
          chunk.values = std::move(result.decoded[p]);
          chunk.selection = result.selection;
        }
        emit(std::move(chunk));
      }
    }
  };

  pump();
  // A throwing callback fails the scan like any other error, but the
  // caller gets its own exception back — after the quiesce below.
  std::exception_ptr emit_exception;
  try {
    emit_loop();
  } catch (...) {
    emit_exception = std::current_exception();
    fail(Status::Internal("emit callback threw"));
  }

  // --- unwind ---------------------------------------------------------------
  if (profile != nullptr) stage_timer.Enter(obs::ScanStage::kTeardown);
  Status emit_status;
  {
    // Quiesce: every submitted item captures this stack frame, so Scan()
    // must not return, rethrow, or give back its admission slot while one
    // is still queued or running.
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return outstanding == 0; });
    if (failed) emit_status = first_error;
  }
  stragglers.Reap();
  if (emit_exception != nullptr) std::rethrow_exception(emit_exception);

  stats.retries = retry.retries_granted();
  stats.cache_hits = cache_hits.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses.load(std::memory_order_relaxed);
  stats.hedges = hedge.hedges_issued();
  stats.hedge_wins = hedge.hedge_wins();
  stats.requests = get_count.load(std::memory_order_relaxed);
  stats.bytes_fetched =
      get_bytes.load(std::memory_order_relaxed) + stragglers.bytes();
  if (breaker != nullptr) {
    // Deltas, because the shared breaker's counters also move under other
    // tenants' scans.
    stats.breaker_trips = breaker->trips() - base_breaker_trips;
    stats.breaker_fast_failures =
        breaker->fast_failures() - base_breaker_fast;
  }
  stats.admission_wait_ns = admission_wait_ns;
  stats.predicate_leaves.resize(resolved.leaf_count);
  for (u32 leaf = 0; leaf < resolved.leaf_count; leaf++) {
    PredicateLeafStats& leaf_stats = stats.predicate_leaves[leaf];
    leaf_stats.description = resolved.leaf_names[leaf];
    leaf_stats.blocks_pruned = leaf_zone_prunes[leaf];
    leaf_stats.fast_path = leaf_fast_count[leaf].load(std::memory_order_relaxed);
    leaf_stats.materialized =
        leaf_materialized_count[leaf].load(std::memory_order_relaxed);
  }
  stats.crc_refetches = crc_refetch_count.load(std::memory_order_relaxed);
  stats.crc_rescues = crc_rescue_count.load(std::memory_order_relaxed);
  stats.bytes_decoded = bytes_decoded_count.load(std::memory_order_relaxed);
  stats.seconds = timer.ElapsedSeconds();
  metrics.bytes_fetched.Add(stats.bytes_fetched);
  metrics.bytes_decoded.Add(stats.bytes_decoded);
  if (profile != nullptr) {
    collector->AddBlockTallies(stats.blocks_pruned, stats.blocks_skipped,
                               stats.blocks_decoded, stats.blocks_unreadable);
    collector->SetBytesFetched(stats.bytes_fetched);
    collector->SetWallSeconds(stats.seconds);
    stage_timer.Finish(collector.get());  // flush the tail stage
    stats.profile =
        std::make_shared<const obs::ScanProfile>(collector->Snapshot());
  }
  if (stats_out != nullptr) *stats_out = stats;
  return emit_status;
}

Status Scanner::Scan(const ScanSpec& spec, ScanOutput* out) {
  ResolvedSpec resolved;
  BTR_RETURN_IF_ERROR(ResolveSpec(spec, &resolved));
  out->columns.clear();
  out->columns.resize(resolved.projection.size());
  for (size_t p = 0; p < resolved.projection.size(); p++) {
    const TableMeta::ColumnMeta& cm = meta_.columns[resolved.projection[p]];
    out->columns[p].name = cm.name;
    out->columns[p].type = cm.type;
    out->columns[p].blocks.resize(resolved.row_blocks);
  }
  out->block_outcomes.assign(resolved.row_blocks, BlockOutcome::kDecoded);
  out->block_selections.assign(resolved.row_blocks, RoaringBitmap());

  const bool has_filter = !spec.filter.Empty();
  Status status = Scan(
      spec,
      [out, has_filter](ColumnChunk&& chunk) {
        out->block_outcomes[chunk.block] = chunk.outcome;
        if (chunk.column == 0 && has_filter &&
            chunk.outcome == BlockOutcome::kDecoded) {
          out->block_selections[chunk.block] = std::move(chunk.selection);
        }
        out->columns[chunk.column].blocks[chunk.block] = std::move(chunk.values);
      },
      &out->stats);
  return status;
}

}  // namespace btr
