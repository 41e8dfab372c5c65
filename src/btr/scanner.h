// btr::Scanner — the unified public API for scanning a table that lives as
// one compressed file per column in an object store (the paper's data-lake
// deployment, Sections 2.1 and 6.7).
//
// The engine is a real pipeline, not the analytic core-count model of
// s3sim::SimulateScan. One engine serves both kinds of Scanner:
//
//   zone maps ──► prune row blocks that cannot match (never fetched)
//   fetch items ► one ranged GET per range: a run of adjacent unpruned
//                 blocks of one column within kFetchRangeBytes, split
//                 into per-block payloads; at most prefetch_depth +
//                 needed columns - 1 ranges in flight
//   decode items► one per complete row block: validate, evaluate the
//                 filter on the *compressed* form (selection vectors),
//                 decompress only blocks whose selection is non-empty
//   emitter ────► chunks surface on the calling thread in block order
//
// Only the executors and the shared state differ. A standalone Scanner
// runs the items on two private pools (fetch_threads and scan_threads
// threads, kept across Scan() calls) and holds nothing else across scans:
// no block cache and no circuit breaker, so every range is a GET. A
// serviced Scanner runs them on the ScanService's shared executors and
// uses its shared block cache and per-backend circuit breaker; a cache or
// a breaker means a ScanService (service/scan_service.h).
//
// API contract (this is the Status-carrying redesign):
//   - Scan() never throws on its own; failures on executor threads,
//     exceptions included, surface as a Status. The one exception is the
//     caller's: when the `emit` callback throws, the scan fails, waits
//     until none of its items is queued or running, and rethrows that
//     exception unchanged.
//   - Transient object-store failures (Status::Throttled/Unavailable) are
//     retried per the ScanConfig retry knobs with interruptible backoff;
//     a permanently unreadable block either fails the scan with a typed
//     Status or, with skip_unreadable_blocks, degrades it (the block is
//     emitted as kUnreadable and reported in ScanStats).
//   - Every fetched block payload is verified against its CRC32C
//     before validation/decoding; a structurally corrupt ("poisoned") or
//     bit-flipped block yields Status::Corruption, not a crash and never
//     silently wrong data.
//   - Chunks arrive in ascending (block, column) order regardless of how
//     fetch and decode interleave.
//
// See docs/SCAN_PIPELINE.md for stages and tuning knobs, and
// docs/ROBUSTNESS.md for the fault model, retry policy and metric names.
#ifndef BTR_BTR_SCANNER_H_
#define BTR_BTR_SCANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/roaring.h"
#include "btr/file_format.h"
#include "btr/predicate.h"
#include "btr/relation.h"
#include "btr/zonemap.h"
#include "obs/profile.h"
#include "s3sim/object_store.h"
#include "util/status.h"

namespace btr::exec {
class ThreadPool;  // exec/thread_pool.h
}  // namespace btr::exec

namespace btr::service {
class ScanService;  // service/scan_service.h
}  // namespace btr::service

namespace btr {

// Scan() fetches adjacent blocks of one column with one ranged GET while
// their total size stays within this many bytes; a larger block is a range
// by itself, and a pruned block always ends a range. A constant, not a
// knob (docs/SCAN_PIPELINE.md, "Coalesced ranges", says why 192 KiB).
inline constexpr u64 kFetchRangeBytes = 192 * 1024;

// The decode threads a standalone Scan() runs with: config.scan_threads,
// or the hardware concurrency (at least 1) when that is 0.
u32 StandaloneDecodeThreads(const ScanConfig& config);

// First table row of row block `block`. 64-bit on purpose: a table's row
// count is u64, so past 2^32 / kBlockCapacity ≈ 67k blocks the product no
// longer fits in u32 — computing it in u32 silently wraps row positions.
inline u64 BlockRowBegin(u32 block) {
  return static_cast<u64>(block) * kBlockCapacity;
}

// What to scan. Embeds the "how" (ScanConfig, btr/config.h).
struct ScanSpec {
  // Projection, in output order. Empty = every column of the table.
  std::vector<std::string> columns;
  // Filter expression (btr/predicate.h): arbitrary AND/OR/NOT over typed
  // leaf comparisons. A leaf may reference a column outside the
  // projection; that column is then fetched for filtering but not decoded
  // into the output. Integer literals against double columns are coerced.
  // Empty = no filtering.
  PredicateExpr filter;
  ScanConfig config;
};

// Why a row block produced no decoded values.
enum class BlockOutcome : u8 {
  kDecoded = 0,     // fetched, filtered, decompressed
  kPruned = 1,      // zone maps proved no match: never fetched
  kSkipped = 2,     // compressed-form predicate evaluation found an empty
                    // selection: fetched but not decompressed
  kUnreadable = 3,  // degraded mode only: fetch failed permanently or the
                    // bytes arrived corrupt; no values were produced
};

// One (column, row-block) result. Emitted for every projected column of
// every row block, in ascending (block, column) order.
struct ColumnChunk {
  u32 column = 0;     // index into the resolved projection
  u32 block = 0;      // row-block index within the table
  u64 row_begin = 0;  // first table row this block covers (u64: table row
                      // counts are u64, so u32 wraps past 2^32 rows)
  u32 row_count = 0;  // rows this block covers
  BlockOutcome outcome = BlockOutcome::kDecoded;
  // Decoded values; empty unless outcome == kDecoded.
  DecodedBlock values;
  // Block-local matching rows. Only meaningful when the spec had
  // predicates and outcome == kDecoded; without predicates every row in
  // [0, row_count) passes and `selection` is left empty.
  RoaringBitmap selection;
};

// Per-leaf planning/evaluation telemetry, one entry per depth-first leaf
// of the resolved filter expression (ScanStats::predicate_leaves).
struct PredicateLeafStats {
  std::string description;  // leaf.ToString() after type coercion
  u64 blocks_pruned = 0;    // row blocks this leaf alone proved empty
  u64 fast_path = 0;        // block evaluations on the compressed form
  u64 materialized = 0;     // block evaluations that decoded values
};

struct ScanStats {
  u32 row_blocks = 0;          // row blocks in the table
  u32 blocks_pruned = 0;       // zone-map pruned row blocks
  u32 blocks_skipped = 0;      // empty-selection row blocks
  u32 blocks_decoded = 0;      // row blocks that reached decompression
  u32 blocks_unreadable = 0;   // degraded mode: blocks skipped as unreadable
  u64 rows_matched = 0;        // rows passing every predicate
  // GETs this scan sent to the store — retries, hedge duplicates and CRC
  // re-fetches included, breaker fast-fails (no GET) excluded — and the
  // payload bytes the successful ones returned. Exact under concurrent
  // scans of the same store.
  u64 bytes_fetched = 0;
  u64 requests = 0;
  u64 retries = 0;             // transient-failure retries granted
  u64 cache_hits = 0;          // block fetches served from the block cache
  u64 cache_misses = 0;        // cacheable fetches that had to GET
  u64 hedges = 0;              // duplicate GETs issued against tail latency
  u64 hedge_wins = 0;          // hedges whose duplicate response won
  u64 breaker_trips = 0;       // circuit-breaker open transitions
  u64 breaker_fast_failures = 0;  // GETs rejected while the breaker was open
  u64 crc_refetches = 0;       // CRC-failed blocks re-fetched once
  u64 crc_rescues = 0;         // re-fetches that produced verified bytes
  u64 admission_wait_ns = 0;   // serviced scans: time queued for admission
  double seconds = 0;          // wall clock of Scan()
  u64 bytes_decoded = 0;       // logical uncompressed bytes produced
  // One entry per depth-first leaf of the resolved filter: where did each
  // comparison spend its time (zone pruning, compressed-form fast path, or
  // decode-and-compare)? Empty when the spec had no filter.
  std::vector<PredicateLeafStats> predicate_leaves;
  // Degraded mode: indices of the kUnreadable row blocks, with the Status
  // that made each unreadable (same order).
  std::vector<u32> unreadable_blocks;
  std::vector<Status> unreadable_reasons;
  // Per-scan profile snapshot (stage breakdown, GET latency histogram,
  // per-scheme decode cost, slow-op exemplars). Null unless the scan ran
  // with ScanConfig::collect_profile. Shared so copies of ScanStats stay
  // cheap; the profile itself is immutable once the scan returns.
  std::shared_ptr<const obs::ScanProfile> profile;
};

// Materialized scan result (the convenience overload).
struct ScanOutput {
  struct ColumnResult {
    std::string name;
    ColumnType type = ColumnType::kInteger;
    // One entry per row block, block-ordered. Pruned/skipped blocks hold
    // an empty DecodedBlock (count == 0).
    std::vector<DecodedBlock> blocks;
  };
  std::vector<ColumnResult> columns;
  std::vector<BlockOutcome> block_outcomes;     // per row block
  std::vector<RoaringBitmap> block_selections;  // per row block (predicates)
  ScanStats stats;
};

// Uploads a compressed relation into the object store using the
// file_format framing, one object per column plus metadata and the
// optional zone-map sidecar. Since the crash-safe write path landed this
// is a thin wrapper over write::CommitCompressedRelation: the objects
// stage under the next version's keys
//   <prefix><table>.v<N>.btrmeta  <prefix><table>.v<N>.<idx>.btr
//   <prefix><table>.v<N>.zones
// and become visible atomically when <prefix><table>.manifest swaps —
// readers see the previous version or the new one, never a mix
// (docs/WRITE_PATH.md).
Status UploadCompressedRelation(const CompressedRelation& relation,
                                const TableZoneMap* zones,
                                const std::string& prefix,
                                s3sim::ObjectStore* store);

class Scanner {
 public:
  // Standalone scanner: private fetch/decode pools, no cache or breaker.
  // `prefix` is the object key prefix the table was uploaded under.
  Scanner(s3sim::ObjectStore* store, std::string table_name,
          std::string prefix = "",
          const CompressionConfig& config = CompressionConfig());
  // Serviced scanner: fetch/decode work runs on `service`'s shared
  // executors under `tenant_id`'s fair-queue lane and quotas, the block
  // cache and per-backend circuit breaker are the service's shared ones,
  // and Scan() passes admission control first — a saturated service or an
  // over-quota tenant surfaces as typed Status::Throttled (transient, so
  // callers can wrap Scan in exec::RunWithRetries). The ScanConfig thread
  // knobs are ignored in this mode; retry, hedging, CRC re-fetch and
  // profiling stay per-scan. `service` must outlive the Scanner.
  Scanner(service::ScanService& service, const std::string& tenant_id,
          s3sim::ObjectStore* store, std::string table_name,
          std::string prefix = "",
          const CompressionConfig& config = CompressionConfig());
  ~Scanner();

  // Fetches and parses the table's metadata: two round trips and at most
  // three GETs, whatever the column count. The first round trip reads the
  // manifest (tables without one skip it); the second reads the .btrmeta
  // object and, concurrently on a helper thread, the zone-map sidecar when
  // present. The meta carries every block's payload size and CRC32C, so
  // no column object is read here; each is only probed for existence and
  // size (no GET). A version-1 meta lacks that framing, and Open then
  // GETs each column's "BTRC" header serially, one more round trip per
  // column. GETs use the config's retry knobs; every parsed structure is
  // CRC-verified.
  Status Open(const ScanConfig& config = ScanConfig());

  // After Open, every column's block_sizes and block_crcs are filled, for
  // a version-1 meta from the column headers.
  const TableMeta& meta() const { return meta_; }
  bool has_zone_map() const { return has_zones_; }
  // Physical table name this scanner resolved at Open: "<table>.v<N>" when
  // the table has a versioned manifest (crash-safe write path), the bare
  // table name for legacy uploads. Pinned for the scanner's lifetime — a
  // concurrently committing writer never changes what an open scanner
  // reads.
  const std::string& resolved_name() const { return resolved_name_; }

  // Streams chunks to `emit` on the calling thread, in ascending
  // (block, column) order. On error, emission stops early and the first
  // failure is returned; chunks already emitted remain valid.
  using ChunkCallback = std::function<void(ColumnChunk&&)>;
  Status Scan(const ScanSpec& spec, const ChunkCallback& emit,
              ScanStats* stats = nullptr);

  // Materializing convenience overload.
  Status Scan(const ScanSpec& spec, ScanOutput* out);

 private:
  struct ResolvedSpec;

  Status ResolveSpec(const ScanSpec& spec, ResolvedSpec* resolved) const;

  s3sim::ObjectStore* store_;
  std::string table_name_;
  std::string prefix_;
  CompressionConfig config_;
  // Version-resolved physical name (see resolved_name()); set by Open.
  std::string resolved_name_;

  bool opened_ = false;
  TableMeta meta_;
  bool has_zones_ = false;
  TableZoneMap zones_;
  // Per column: byte offset of each block payload inside the column
  // object, plus one past-the-end entry.
  std::vector<std::vector<u64>> block_offsets_;
  // Wall nanoseconds the last successful Open() spent fetching/parsing
  // metadata — stamped into ScanProfile::open_ns when profiling.
  u64 open_ns_ = 0;
  // Standalone executors, persistent across Scan() calls so repeated
  // scans stop paying thread create/join churn per call.
  std::unique_ptr<exec::ThreadPool> fetch_pool_;
  std::unique_ptr<exec::ThreadPool> decode_pool_;
  // Serviced mode (null/unused for standalone scanners).
  service::ScanService* service_ = nullptr;
  u32 tenant_slot_ = 0;
};

}  // namespace btr

#endif  // BTR_BTR_SCANNER_H_
