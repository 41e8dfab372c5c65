#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "btr/file_format.h"
#include "btr/relation.h"
#include "btr/scanner.h"
#include "btr/zonemap.h"
#include "data.h"
#include "exec/block_cache.h"
#include "gate.h"
#include "s3sim/object_store.h"
#include "service/scan_service.h"
#include "stats.h"
#include "trace.h"
#include "util/crc32c.h"
#include "write/manifest.h"
#include "write/streaming_writer.h"

namespace lakebench {

namespace exec = btr::exec;
namespace obs = btr::obs;
namespace s3sim = btr::s3sim;
namespace service = btr::service;
namespace write = btr::write;
using btr::BlockOutcome;
using btr::ColumnChunk;
using btr::CompressedRelation;
using btr::Relation;
using btr::ScanSpec;
using btr::ScanStats;
using btr::Status;
using btr::u32;
using btr::u8;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lake-cold", "dash-warm",
                                                 "ingest"};
  return names;
}

std::vector<std::pair<std::string, std::string>> EndToEndMetrics() {
  return {{"setup_s", "s"},
          {"op_p50_ms", "ms"},
          {"op_p90_ms", "ms"},
          {"ops_per_s", "1/s"},
          {"user_mb_s", "MB/s"},
          {"requests_per_op", "count"},
          {"moved_mb_per_op", "MB"},
          {"stored_per_user_byte", "ratio"},
          {"ok_ratio", "ratio"},
          {"heap_mb", "MB"}};
}

namespace {

const char* TypeTag(btr::ColumnType type) {
  switch (type) {
    case btr::ColumnType::kInteger: return "int";
    case btr::ColumnType::kDouble: return "double";
    case btr::ColumnType::kString: return "string";
  }
  return "?";
}

const char* SchemeTag(btr::ColumnType type, u32 code) {
  switch (type) {
    case btr::ColumnType::kInteger:
      return btr::IntSchemeName(static_cast<btr::IntSchemeCode>(code));
    case btr::ColumnType::kDouble:
      return btr::DoubleSchemeName(static_cast<btr::DoubleSchemeCode>(code));
    case btr::ColumnType::kString:
      return btr::StringSchemeName(static_cast<btr::StringSchemeCode>(code));
  }
  return "?";
}

u32 SchemeCount(btr::ColumnType type) {
  switch (type) {
    case btr::ColumnType::kInteger: return btr::kIntSchemeCount;
    case btr::ColumnType::kDouble: return btr::kDoubleSchemeCount;
    case btr::ColumnType::kString: return btr::kStringSchemeCount;
  }
  return 0;
}

constexpr btr::ColumnType kTypes[] = {btr::ColumnType::kInteger,
                                      btr::ColumnType::kDouble,
                                      btr::ColumnType::kString};

std::string DecodeMetricName(btr::ColumnType type, u32 scheme) {
  return std::string("btr.decode_gbps.") + TypeTag(type) + "." +
         SchemeTag(type, scheme);
}

}  // namespace

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> metrics = {
      {"s3sim.gets_open", "count"},
      {"s3sim.gets_scan", "count"},
      {"s3sim.get_mb", "MB"},
      {"s3sim.get_replay_ms", "ms"},
      {"s3sim.puts", "count"},
      {"s3sim.put_mb", "MB"},
      {"exec.prefetch_wait_ms", "ms"},
      {"exec.cache_hits", "count"},
      {"exec.cache_hit_ratio", "ratio"},
      {"exec.cache_lookup_us", "us"},
      {"exec.retries", "count"},
      {"btr.scanner.open_ms", "ms"},
      {"btr.scanner.emit_ms", "ms"},
      {"btr.scanner.scan_self_ms", "ms"},
      {"btr.zonemap.pruned_ratio", "ratio"},
      {"btr.zonemap.compute_ms", "ms"},
      {"btr.predicate_ms", "ms"},
      {"btr.predicate.fastpath_ratio", "ratio"},
      {"btr.predicate.skipped_ratio", "ratio"},
      {"btr.validate_ms", "ms"},
      {"btr.decode_ms", "ms"},
      {"util.crc32c_gbps", "GB/s"},
      {"service.admission_wait_ms", "ms"},
      {"service.queue_wait_p95_ms", "ms"},
      {"write.begin_ms", "ms"},
      {"write.append_ms", "ms"},
      {"write.commit_ms", "ms"},
      {"write.stats_ms", "ms"},
      {"write.estimate_ms", "ms"},
      {"write.compress_ms", "ms"},
      {"proc.cpu_ms_per_op", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.wall_unaccounted_ratio", "ratio"},
      {"trace.cpu_unaccounted_ratio", "ratio"}};
  for (btr::ColumnType type : kTypes) {
    for (u32 s = 0; s < SchemeCount(type); s++) {
      metrics.push_back({DecodeMetricName(type, s), "GB/s"});
    }
  }
  return metrics;
}

namespace {

constexpr char kPrefix[] = "lake/";
constexpr char kTable[] = "events";
// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
constexpr u32 kDashTenants = 4;
constexpr u32 kIngestChunkRows = 10000;
// Keep measuring past --seconds until p90 has kMinTailSamples beyond it,
// but never past this multiple of --seconds.
constexpr double kMaxOvertime = 3.0;

u32 Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

s3sim::S3Config WallClockStoreConfig() {
  s3sim::S3Config config;  // defaults: 2 ms to first byte, 2 Gbit/s per flow
  config.simulate_wall_clock = true;
  return config;
}

double Ms(u64 ns) { return static_cast<double>(ns) / 1e6; }

// One timed op.
struct OpRecord {
  u32 key = 0;        // query or batch index: ops with one key do one job
  u64 start_ns = 0;
  u64 end_ns = 0;
  double ms = 0;      // latency
  bool ok = false;
  u64 requests = 0;   // store GET and PUT requests plus block-cache hits
  u64 moved_bytes = 0;   // bytes read from the store or the cache, plus put
  u64 user_bytes = 0;    // result bytes (reads) or appended bytes (ingest)
  u64 stored_bytes = 0;  // bytes landed in the store (ingest)
  // Layer observations, kept in traced phases.
  u64 gets_open = 0;
  u64 gets_other = 0;
  u64 get_bytes = 0;
  u64 puts = 0;
  u64 put_bytes = 0;
  u64 tel_stats_ns = 0;
  u64 tel_estimate_ns = 0;
  u64 tel_compress_ns = 0;
  ScanStats stats;
  std::vector<BlockOutcome> outcomes;
};

struct Phase {
  std::vector<OpRecord> ops;
  double seconds = 0;      // wall time of the phase
  double cpu_seconds = 0;  // process CPU during the phase
  std::vector<HeapSample> heap;  // client heap during the phase
  std::vector<Span> spans;
};

// Closed-loop stop rule: run for `seconds`; when `min_ops` is set, go on
// until that many ops completed, up to kMaxOvertime x `seconds`.
class StopRule {
 public:
  StopRule(double seconds, size_t min_ops)
      : end_(NowNs() + static_cast<u64>(seconds * 1e9)),
        hard_end_(NowNs() + static_cast<u64>(kMaxOvertime * seconds * 1e9)),
        min_ops_(min_ops) {}
  bool KeepGoing(size_t ops_done) const {
    u64 now = NowNs();
    return now < end_ || (ops_done < min_ops_ && now < hard_end_);
  }

 private:
  u64 end_, hard_end_;
  size_t min_ops_;
};

// Measures a phase: wall and process CPU around `body`, and the heap less
// `excluded_mb()`: what the benchmark holds outside the program under test.
template <typename Body>
Phase MeasurePhase(SpanRecorder* spans, std::function<double()> excluded_mb,
                   Body body) {
  Phase phase;
  HeapSampler heap(std::move(excluded_mb));
  double cpu0 = ProcessCpuSeconds();
  u64 start = NowNs();
  body(&phase.ops);
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  phase.cpu_seconds = ProcessCpuSeconds() - cpu0;
  phase.heap = heap.Stop();
  if (spans != nullptr) phase.spans = spans->Snapshot();
  return phase;
}

// The client heap an op needs at its peak, with whatever other ops had in
// flight at the time: the highest sample taken while the op ran. Reported
// as the mean, over the phase's distinct keys, of each key's median peak,
// so that neither a few ops that met a host stall nor which columns the
// seed put together move it.
double OpPeakHeapMb(const Phase& phase) {
  std::map<u32, std::vector<double>> peaks;
  for (const OpRecord& op : phase.ops) {
    auto it = std::lower_bound(
        phase.heap.begin(), phase.heap.end(), op.start_ns,
        [](const HeapSample& sample, u64 ns) { return sample.ns < ns; });
    double peak = -1;
    for (; it != phase.heap.end() && it->ns <= op.end_ns; ++it) peak = std::max(peak, it->mb);
    if (peak >= 0) peaks[op.key].push_back(peak);
  }
  double sum = 0;
  for (const auto& [key, values] : peaks) sum += Median(values);
  return peaks.empty() ? 0.0 : sum / peaks.size();
}

// Mean, over the distinct keys of `ops`, of the first op's value per key.
// Every op of a key does the same job, so the value repeats exactly for
// a given seed however many ops the run completed. With `expect_exact`, a
// key whose ops disagree is reported; ingest ops of one key legitimately
// differ a little, since object keys carry a growing version number.
double KeyMean(const std::vector<OpRecord>& ops, u64 OpRecord::*field,
               const char* what, RunResult* result, bool expect_exact = true) {
  std::map<u32, u64> first;
  bool varied = false;
  for (const OpRecord& op : ops) {
    if (!op.ok) continue;
    auto [it, inserted] = first.emplace(op.key, op.*field);
    if (!inserted && it->second != op.*field) varied = true;
  }
  if (varied && expect_exact) {
    result->notes.push_back(std::string(what) + " varies between ops of one key");
  }
  if (first.empty()) return 0;
  double sum = 0;
  for (const auto& [key, value] : first) sum += static_cast<double>(value);
  return sum / static_cast<double>(first.size());
}

void AddMetric(RunResult* result, const std::string& name, double value,
               const std::string& unit) {
  result->metrics.push_back({name, value, unit});
}

// End-to-end metrics of an untraced phase.
void EndToEnd(const Phase& phase, double setup_s, double stored_per_user_byte,
              RunResult* result, bool exact_keys = true) {
  std::vector<double> latencies;
  u64 ok = 0, user_bytes = 0;
  for (const OpRecord& op : phase.ops) {
    // A failed op misses any latency limit: it counts as lasting the
    // whole phase.
    latencies.push_back(op.ok ? op.ms : std::max(op.ms, phase.seconds * 1e3));
    if (op.ok) {
      ok++;
      user_bytes += op.user_bytes;
    }
  }
  double p50 = 0, p90 = 0;
  if (!TailedPercentile(latencies, 0.5, &p50) ||
      !TailedPercentile(latencies, 0.9, &p90)) {
    result->errors.push_back("too few ops for p90: " +
                             std::to_string(latencies.size()) + " < " +
                             std::to_string(MinSamplesFor(0.9)));
    result->correct = false;
  }
  result->notes.push_back("ops: " + std::to_string(phase.ops.size()) +
                          " latency samples in " +
                          std::to_string(phase.seconds) + " s");
  // When ops_per_s drops and this rises as much, the CPU got slower (host
  // load), not the work larger.
  result->notes.push_back(
      "process cpu per op: " +
      std::to_string(phase.ops.empty() ? 0.0 : phase.cpu_seconds * 1e3 / phase.ops.size()) +
      " ms");
  AddMetric(result, "setup_s", setup_s, "s");
  AddMetric(result, "op_p50_ms", p50, "ms");
  AddMetric(result, "op_p90_ms", p90, "ms");
  AddMetric(result, "ops_per_s", ok / phase.seconds, "1/s");
  AddMetric(result, "user_mb_s", user_bytes / phase.seconds / 1e6, "MB/s");
  AddMetric(result, "requests_per_op",
            KeyMean(phase.ops, &OpRecord::requests, "requests", result, exact_keys),
            "count");
  AddMetric(result, "moved_mb_per_op",
            KeyMean(phase.ops, &OpRecord::moved_bytes, "moved bytes", result,
                    exact_keys) / 1e6,
            "MB");
  AddMetric(result, "stored_per_user_byte", stored_per_user_byte, "ratio");
  AddMetric(result, "ok_ratio",
            phase.ops.empty() ? 0.0 : static_cast<double>(ok) / phase.ops.size(),
            "ratio");
  AddMetric(result, "heap_mb", OpPeakHeapMb(phase), "MB");
  result->notes.push_back("peak rss: " + std::to_string(PeakRssMb()) + " MB");
}

void CountOps(const Phase& phase, RunResult* result) {
  for (const OpRecord& op : phase.ops) {
    result->attempted++;
    if (!op.ok) result->failed++;
  }
}

// Median wall time of `repeats` runs of `setup`; the last one's state is
// what the run measures.
template <typename SetUp>
double TimedSetUp(SetUp setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; i++) {
    u64 start = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(seconds);
}

// The table a read workload scans, compressed and uploaded under kPrefix.
struct ScanTable {
  CompressedRelation compressed;
  btr::TableZoneMap zones;
};

// Compression runs on one thread, the library default, which also keeps
// setup_s from swinging with how many cores the host has free.
void CompressAndUpload(const Relation& table, s3sim::ObjectStore* store,
                       ScanTable* out) {
  out->compressed = btr::CompressRelation(table, btr::CompressionConfig());
  out->zones.columns.clear();
  for (const btr::Column& column : table.columns()) {
    out->zones.columns.push_back(btr::ComputeColumnZoneMap(column));
  }
  Status status = btr::UploadCompressedRelation(out->compressed, &out->zones,
                                                kPrefix, store);
  BTR_CHECK_MSG(status.ok(), "lakebench: table upload failed");
}

// Bytes every object under `prefix` holds.
u64 StoredBytes(s3sim::ObjectStore* store, const std::string& prefix = "") {
  u64 total = 0;
  for (const std::string& key : store->ListKeys(prefix)) {
    u64 size = 0;
    if (store->ObjectSize(key, &size).ok()) total += size;
  }
  return total;
}

std::vector<u32> ColumnIndices(const CompressedRelation& rel,
                               const std::vector<std::string>& names) {
  std::vector<u32> out;
  for (const std::string& name : names) {
    for (u32 c = 0; c < rel.columns.size(); c++) {
      if (rel.columns[c].name == name) out.push_back(c);
    }
  }
  return out;
}

// Columns a query fetches: the projection, then filter-only columns.
std::vector<u32> FetchedColumns(const CompressedRelation& rel, const Query& query) {
  std::vector<std::string> names = query.columns;
  for (const std::string& name : query.filter.Columns()) {
    if (std::find(names.begin(), names.end(), name) == names.end()) names.push_back(name);
  }
  return ColumnIndices(rel, names);
}

// The block parts a query fetches: per row block, the compressed bytes of
// its fetched columns' parts.
struct QueryParts {
  std::vector<u64> block_bytes;
  u64 columns = 0;  // parts per row block
};

QueryParts PartsOf(const CompressedRelation& rel, const Query& query) {
  QueryParts parts;
  parts.block_bytes.assign(rel.columns.empty() ? 0 : rel.columns[0].blocks.size(), 0);
  for (u32 c : FetchedColumns(rel, query)) {
    parts.columns++;
    for (size_t b = 0; b < parts.block_bytes.size(); b++) {
      parts.block_bytes[b] += rel.columns[c].blocks[b].size();
    }
  }
  return parts;
}

// Estimated compressed bytes of the `hits` block parts a scan with these
// outcomes read from the cache. The library counts cache hits but not
// their bytes, so the hits are priced at the mean size of the parts of the
// blocks that were not pruned. When every such part hit, that is exact.
u64 HitBytes(const QueryParts& parts, const std::vector<BlockOutcome>& outcomes,
             u64 hits) {
  u64 bytes = 0, count = 0;
  for (size_t b = 0; b < outcomes.size() && b < parts.block_bytes.size(); b++) {
    if (outcomes[b] == BlockOutcome::kPruned) continue;
    bytes += parts.block_bytes[b];
    count += parts.columns;
  }
  return count == 0 ? 0 : bytes * hits / count;
}

// Re-runs the public function of each read-path layer on exactly the block
// parts one op touched, single-threaded and outside any timed region.
class Replayer {
 public:
  // `store` holds the same objects as the measured store but has no
  // simulated latency. `cache` is the warm block cache of a workload whose
  // ops read through it, null for one whose ops GET every part.
  Replayer(const CompressedRelation& rel, s3sim::ObjectStore* store,
           const std::string& resolved_name, exec::BlockCache* cache)
      : rel_(rel), store_(store), cache_(cache) {
    for (u32 c = 0; c < rel.columns.size(); c++) {
      keys_.push_back(btr::ColumnFileKey(kPrefix, resolved_name, c));
      std::vector<u64> offsets;
      u64 offset = btr::ColumnFileHeaderBytes(rel.columns[c].blocks.size());
      for (const btr::ByteBuffer& block : rel.columns[c].blocks) {
        offsets.push_back(offset);
        offset += block.size();
      }
      offsets_.push_back(std::move(offsets));
    }
  }

  // Replays one op `weight` times over (counts scale, work runs once).
  void ReplayScan(const Query& query, const std::vector<BlockOutcome>& outcomes,
                  u64 weight) {
    u64 cpu0 = ThreadCpuNs();
    std::vector<u32> fetched = FetchedColumns(rel_, query);
    std::vector<u32> projected = ColumnIndices(rel_, query.columns);
    btr::CompressionConfig config;
    std::vector<u8> buffer;
    for (u32 b = 0; b < outcomes.size(); b++) {
      if (outcomes[b] == BlockOutcome::kPruned) continue;
      for (u32 c : fetched) {
        const btr::CompressedColumn& column = rel_.columns[c];
        const btr::ByteBuffer& block = column.blocks[b];
        // An op reads a block part either from the store or, when a
        // cache serves the workload, from the cache: replay the same.
        if (cache_ == nullptr) {
          u64 t0 = NowNs();
          Status got = store_->GetChunk(keys_[c], offsets_[c][b], block.size(), &buffer);
          get_ns_ += (NowNs() - t0) * weight;
          if (!got.ok() || buffer.size() != block.size() ||
              std::memcmp(buffer.data(), block.data(), block.size()) != 0) {
            layout_mismatches_++;
          }
        } else {
          u64 t0 = NowNs();
          bool hit = cache_->LookupShared(keys_[c], offsets_[c][b], block.size()) != nullptr;
          lookup_ns_ += (NowNs() - t0) * weight;
          lookups_ += weight;
          if (!hit) lookup_misses_ += weight;
        }
        u64 t0 = NowNs();
        crc_sink_ ^= btr::Crc32c(block.data(), block.size());
        u64 t1 = NowNs();
        Status valid = btr::ValidateBlock(block.data(), block.size(), column.type,
                                          column.block_value_counts[b]);
        u64 t2 = NowNs();
        if (!valid.ok()) layout_mismatches_++;
        crc_ns_ += (t1 - t0) * weight;
        crc_bytes_ += block.size() * weight;
        validate_ns_ += (t2 - t1) * weight;
      }
      if (!query.filter.Empty()) {
        u64 t0 = NowNs();
        std::vector<btr::LeafEvalStats> leaf_stats;
        btr::EvalResult eval = btr::EvaluateExpr(
            query.filter, rel_.columns[0].block_value_counts[b],
            [&](const std::string& name) -> const u8* {
              for (u32 c : fetched) {
                if (rel_.columns[c].name == name) return rel_.columns[c].blocks[b].data();
              }
              return nullptr;
            },
            config, &leaf_stats);
        predicate_ns_ += (NowNs() - t0) * weight;
        crc_sink_ ^= static_cast<u32>(eval.pass.Cardinality());
      }
      if (outcomes[b] != BlockOutcome::kDecoded) continue;
      for (u32 c : projected) {
        const btr::CompressedColumn& column = rel_.columns[c];
        u64 t0 = NowNs();
        btr::DecompressBlock(column.blocks[b].data(), &scratch_, config);
        u64 ns = (NowNs() - t0) * weight;
        decode_ns_ += ns;
        auto& slot = by_scheme_[{static_cast<u32>(column.type),
                                 column.block_root_schemes[b]}];
        slot.first += ns;
        slot.second += scratch_.ValueBytes() * weight;
      }
    }
    cpu_ns_ += (ThreadCpuNs() - cpu0) * weight;
  }

  void Report(double ops, std::map<std::string, double>* m) const {
    (*m)["s3sim.get_replay_ms"] = Ms(get_ns_) / ops;
    (*m)["exec.cache_lookup_us"] =
        lookups_ == 0 ? 0.0 : static_cast<double>(lookup_ns_) / lookups_ / 1e3;
    (*m)["util.crc32c_gbps"] =
        crc_ns_ == 0 ? 0.0 : static_cast<double>(crc_bytes_) / crc_ns_;
    (*m)["btr.validate_ms"] = Ms(validate_ns_) / ops;
    (*m)["btr.predicate_ms"] = Ms(predicate_ns_) / ops;
    (*m)["btr.decode_ms"] = Ms(decode_ns_) / ops;
    for (const auto& [type_scheme, ns_bytes] : by_scheme_) {
      if (ns_bytes.first == 0) continue;
      (*m)[DecodeMetricName(static_cast<btr::ColumnType>(type_scheme.first),
                            type_scheme.second)] =
          static_cast<double>(ns_bytes.second) / ns_bytes.first;
    }
  }

  u64 cpu_ns() const { return cpu_ns_; }
  u64 layout_mismatches() const { return layout_mismatches_; }
  u64 lookup_misses() const { return lookup_misses_; }

 private:
  const CompressedRelation& rel_;
  s3sim::ObjectStore* store_;
  exec::BlockCache* cache_;
  std::vector<std::string> keys_;
  std::vector<std::vector<u64>> offsets_;
  btr::DecodedBlock scratch_;
  u64 get_ns_ = 0, lookup_ns_ = 0, lookups_ = 0, lookup_misses_ = 0;
  u64 crc_ns_ = 0, crc_bytes_ = 0, validate_ns_ = 0, predicate_ns_ = 0;
  u64 decode_ns_ = 0, cpu_ns_ = 0, layout_mismatches_ = 0;
  u32 crc_sink_ = 0;  // keeps replayed results live
  std::map<std::pair<u32, u32>, std::pair<u64, u64>> by_scheme_;  // ns, bytes
};

// Replays every op of a traced scan phase, once per distinct
// (query, block outcomes) pair, weighted by how many ops shared it.
void ReplayScanPhase(const Phase& phase, const std::vector<Query>& queries,
                     Replayer* replayer) {
  std::map<std::pair<u32, std::vector<BlockOutcome>>, u64> jobs;
  for (const OpRecord& op : phase.ops) {
    if (op.ok) jobs[{op.key, op.outcomes}]++;
  }
  for (const auto& [job, weight] : jobs) {
    replayer->ReplayScan(queries[job.first], job.second, weight);
  }
}

double MeanMs(const Phase& phase) {
  double sum = 0;
  for (const OpRecord& op : phase.ops) sum += op.ms;
  return phase.ops.empty() ? 0.0 : sum / phase.ops.size();
}

// Per-layer metrics every workload derives the same way from a traced
// phase; `replay_cpu_ns` is the CPU the replayed layer calls cost.
void CommonLayers(const Phase& untraced, const Phase& traced, u64 replay_cpu_ns,
                  std::map<std::string, double>* m) {
  double ops = std::max<double>(1, traced.ops.size());
  u64 gets_open = 0, gets_other = 0, get_bytes = 0, puts = 0, put_bytes = 0;
  u64 hits = 0, misses = 0, retries = 0, prefetch_wait = 0, admission = 0;
  u64 pruned = 0, blocks = 0, skipped = 0, fast = 0, slow = 0;
  for (const OpRecord& op : traced.ops) {
    gets_open += op.gets_open;
    gets_other += op.gets_other;
    get_bytes += op.get_bytes;
    puts += op.puts;
    put_bytes += op.put_bytes;
    hits += op.stats.cache_hits;
    misses += op.stats.cache_misses;
    retries += op.stats.retries;
    admission += op.stats.admission_wait_ns;
    if (op.stats.profile) {
      prefetch_wait += op.stats.profile->activities[static_cast<u32>(
                                                       obs::ScanActivity::kPrefetchWait)]
                           .ns;
    }
    if (!op.stats.predicate_leaves.empty()) {
      pruned += op.stats.blocks_pruned;
      blocks += op.stats.row_blocks;
      skipped += op.stats.blocks_skipped;
      for (const btr::PredicateLeafStats& leaf : op.stats.predicate_leaves) {
        fast += leaf.fast_path;
        slow += leaf.materialized;
      }
    }
  }
  (*m)["s3sim.gets_open"] = gets_open / ops;
  (*m)["s3sim.gets_scan"] = gets_other / ops;
  (*m)["s3sim.get_mb"] = get_bytes / ops / 1e6;
  (*m)["s3sim.puts"] = puts / ops;
  (*m)["s3sim.put_mb"] = put_bytes / ops / 1e6;
  (*m)["exec.prefetch_wait_ms"] = Ms(prefetch_wait) / ops;
  (*m)["exec.cache_hits"] = hits / ops;
  (*m)["exec.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
  (*m)["exec.retries"] = retries / ops;
  (*m)["service.admission_wait_ms"] = Ms(admission) / ops;
  (*m)["btr.zonemap.pruned_ratio"] =
      blocks == 0 ? 0.0 : static_cast<double>(pruned) / blocks;
  (*m)["btr.predicate.skipped_ratio"] =
      blocks == pruned ? 0.0 : static_cast<double>(skipped) / (blocks - pruned);
  (*m)["btr.predicate.fastpath_ratio"] =
      fast + slow == 0 ? 0.0 : static_cast<double>(fast) / (fast + slow);
  (*m)["btr.scanner.open_ms"] = Ms(TotalNs(traced.spans, "open")) / ops;
  (*m)["btr.scanner.emit_ms"] = Ms(TotalNs(traced.spans, "emit")) / ops;
  (*m)["btr.scanner.scan_self_ms"] = Ms(SelfNs(traced.spans, "scan")) / ops;
  (*m)["write.begin_ms"] = Ms(TotalNs(traced.spans, "begin")) / ops;
  (*m)["write.append_ms"] = Ms(TotalNs(traced.spans, "append")) / ops;
  (*m)["write.commit_ms"] = Ms(TotalNs(traced.spans, "commit")) / ops;
  (*m)["proc.cpu_ms_per_op"] = traced.cpu_seconds * 1e3 / ops;
  double untraced_ms = MeanMs(untraced);
  (*m)["trace.overhead_ratio"] = untraced_ms == 0 ? 0.0 : MeanMs(traced) / untraced_ms;
  (*m)["trace.wall_unaccounted_ratio"] = WallUnaccountedRatio(traced.spans);
  (*m)["trace.cpu_unaccounted_ratio"] =
      traced.cpu_seconds <= 0 ? 0.0
                              : 1.0 - static_cast<double>(replay_cpu_ns) / 1e9 /
                                          traced.cpu_seconds;
}

void PerLayer(const std::map<std::string, double>& measured, RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = measured.find(name);
    AddMetric(result, name, it == measured.end() ? 0.0 : it->second, unit);
  }
}

void WriteSpans(const RunOptions& options, const Phase& traced, RunResult* result) {
  if (options.trace_path.empty()) return;
  std::ofstream out(options.trace_path);
  out << SpansToJson(traced.spans);
  result->notes.push_back("spans: " + std::to_string(traced.spans.size()) +
                          " written to " + options.trace_path);
}

// Runs the scans of a read workload's distinct queries once more, outside
// timing, and compares every value with the oracle's checksum.
template <typename ScanFn>
void VerifyQueries(const std::vector<Query>& queries,
                   const std::vector<Reference>& refs, ScanFn scan, Gate* gate,
                   RunResult* result) {
  u64 start = NowNs();
  for (size_t q = 0; q < queries.size(); q++) {
    ResultCollector collector(queries[q].columns.size(), !queries[q].filter.Empty(),
                              /*checksum=*/true);
    ScanStats stats;
    Status status = scan(queries[q], &collector, &stats);
    collector.Finish();
    std::string why = status.ToString();
    gate->Expect(status.ok() && CheckScan(refs[q], collector, stats, true, &why),
                 "verify " + queries[q].Describe() + ": " + why);
  }
  result->notes.push_back("verified " + std::to_string(queries.size()) +
                          " distinct queries against the oracle in " +
                          std::to_string((NowNs() - start) / 1e9) + " s");
}

ScanSpec SpecFor(const Query& query, const btr::ScanConfig& config) {
  ScanSpec spec;
  spec.columns = query.columns;
  spec.filter = query.filter;
  spec.config = config;
  return spec;
}

// The oracle's answer to every query, computed on all cores (untimed).
std::vector<Reference> ComputeReferences(const Relation& table,
                                         const std::vector<Query>& queries) {
  std::vector<Reference> refs(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (u32 w = 0; w < Nproc(); w++) {
    workers.emplace_back([&] {
      for (size_t q = next++; q < queries.size(); q = next++) {
        refs[q] = ComputeReference(table, queries[q]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return refs;
}

// Checks one timed scan op and records a failure in the gate.
bool CheckOp(const Query& query, const Reference& ref, const Status& status,
             const ResultCollector& collector, const ScanStats& stats,
             Gate* gate) {
  std::string why = status.ToString();
  bool ok = status.ok() && CheckScan(ref, collector, stats, false, &why);
  // A throttled op is a failed op, not a wrong result.
  if (!ok && !status.IsThrottled()) gate->Expect(false, query.Describe() + ": " + why);
  return ok;
}

void Finish(const Gate& gate, RunResult* result) {
  for (const std::string& message : gate.messages()) result->errors.push_back(message);
  if (gate.failures() > 0) result->correct = false;
}

// ---------------------------------------------------------------------------
// lake-cold: a fresh node's query. Each op builds a standalone Scanner,
// Opens it and scans a 3-column projection with the block cache off, over
// a store that sleeps for GET latency and per-flow bandwidth.
RunResult RunLakeCold(const RunOptions& options) {
  RunResult result;
  Gate gate;
  Relation table = MakeLakeTable(kTable, kTableRows, options.seed);
  std::vector<Query> cycle = MakeColdCycle(table, options.seed);

  std::unique_ptr<s3sim::ObjectStore> store;
  ScanTable scan_table;
  double setup_s = TimedSetUp([&] {
    store = std::make_unique<s3sim::ObjectStore>(WallClockStoreConfig());
    CompressAndUpload(table, store.get(), &scan_table);
  });
  const CompressedRelation& rel = scan_table.compressed;
  double stored = static_cast<double>(StoredBytes(store.get(), kPrefix)) /
                  rel.UncompressedBytes();
  result.notes.push_back("table: " + std::to_string(table.row_count()) + " rows, " +
                         std::to_string(rel.UncompressedBytes()) + " B raw, " +
                         std::to_string(rel.CompressedBytes()) + " B compressed");

  std::vector<Reference> refs = ComputeReferences(table, cycle);
  // Only the replays of a traced run read the benchmark's own copies of
  // the table; dropping them keeps heap_mb to what the program holds.
  table = Relation(kTable);
  if (!options.trace) scan_table.compressed = CompressedRelation();

  btr::ScanConfig config;
  config.fetch_threads = std::min(config.fetch_threads, Nproc());
  // The store's objects stand in for remote storage, not client memory.
  const double store_mb = StoredBytes(store.get()) / 1e6;
  auto excluded_mb = [store_mb] { return store_mb; };

  auto run_phase = [&](double seconds, size_t min_ops, SpanRecorder* spans) {
    btr::ScanConfig phase_config = config;
    phase_config.collect_profile = spans != nullptr;
    return MeasurePhase(spans, excluded_mb, [&](std::vector<OpRecord>* ops) {
      StopRule stop(seconds, min_ops);
      for (u64 i = 0; stop.KeepGoing(ops->size()); i++) {
        OpRecord op;
        op.key = static_cast<u32>(i % cycle.size());
        const Query& query = cycle[op.key];
        ScanSpec spec = SpecFor(query, phase_config);
        ResultCollector collector(query.columns.size(), false, false);
        ScanStats stats;
        u64 req0 = store->total_requests(), bytes0 = store->total_bytes_fetched();
        u64 start = NowNs(), last_emit = 0;
        i64 root = spans ? spans->Begin("op", -1, i) : -1;
        std::optional<btr::Scanner> scanner;
        Status status;
        {
          ScopedSpan span(spans, "open", root, i);
          scanner.emplace(store.get(), kTable, kPrefix);
          status = scanner->Open(phase_config);
        }
        u64 req1 = store->total_requests();
        if (status.ok()) {
          ScopedSpan span(spans, "scan", root, i);
          status = scanner->Scan(
              spec,
              [&](ColumnChunk&& chunk) {
                ScopedSpan emit(spans, "emit", span.id(), i);
                collector.Add(std::move(chunk));
                last_emit = NowNs();
              },
              &stats);
        }
        u64 end = last_emit != 0 ? last_emit : NowNs();
        if (spans) spans->End(root, end);
        collector.Finish();
        op.start_ns = start;
        op.end_ns = end;
        op.ms = Ms(end - start);
        op.ok = CheckOp(query, refs[op.key], status, collector, stats, &gate);
        op.gets_open = req1 - req0;
        op.gets_other = store->total_requests() - req1;
        op.get_bytes = store->total_bytes_fetched() - bytes0;
        op.requests = op.gets_open + op.gets_other + stats.cache_hits;
        op.moved_bytes = op.get_bytes;
        op.user_bytes = refs[op.key].result_bytes;
        if (spans) {
          op.stats = std::move(stats);
          op.outcomes = collector.outcomes();
        }
        ops->push_back(std::move(op));
      }
    });
  };

  if (!options.trace) {
    Phase phase = run_phase(options.seconds, MinSamplesFor(0.9), nullptr);
    CountOps(phase, &result);
    EndToEnd(phase, setup_s, stored, &result);
  } else {
    Phase untraced = run_phase(options.seconds / 2, 0, nullptr);
    SpanRecorder spans;
    Phase traced = run_phase(options.seconds / 2, 0, &spans);
    CountOps(untraced, &result);
    CountOps(traced, &result);
    s3sim::ObjectStore replay_store;
    BTR_CHECK(btr::UploadCompressedRelation(rel, &scan_table.zones, kPrefix, &replay_store).ok());
    std::string resolved;
    BTR_CHECK(write::ResolveCommittedName(&replay_store, kPrefix, kTable, &resolved).ok());
    Replayer replayer(rel, &replay_store, resolved, nullptr);
    ReplayScanPhase(traced, cycle, &replayer);
    std::map<std::string, double> m;
    replayer.Report(std::max<double>(1, traced.ops.size()), &m);
    CommonLayers(untraced, traced, replayer.cpu_ns(), &m);
    if (replayer.layout_mismatches() > 0) {
      result.notes.push_back("replay: block layout mismatches: " +
                             std::to_string(replayer.layout_mismatches()));
    }
    PerLayer(m, &result);
    WriteSpans(options, traced, &result);
  }

  VerifyQueries(cycle, refs,
                [&](const Query& query, ResultCollector* collector, ScanStats* stats) {
                  btr::Scanner scanner(store.get(), kTable, kPrefix);
                  Status status = scanner.Open(config);
                  if (!status.ok()) return status;
                  return scanner.Scan(
                      SpecFor(query, config),
                      [&](ColumnChunk&& chunk) { collector->Add(std::move(chunk)); },
                      stats);
                },
                &gate, &result);
  Finish(gate, &result);
  return result;
}

// ---------------------------------------------------------------------------
// dash-warm: dashboards of several tenants served by one ScanService whose
// shared cache holds the whole table, so warm ops issue no GETs.
RunResult RunDashWarm(const RunOptions& options) {
  RunResult result;
  Gate gate;
  Relation table = MakeLakeTable(kTable, kTableRows, options.seed);
  std::vector<Query> pool = MakeDashPool(table, options.seed);
  const u32 tenants = std::min(kDashTenants, Nproc());

  btr::ScanConfig config;
  // Declared so that scanners go before the service they run on.
  std::unique_ptr<s3sim::ObjectStore> store;
  std::unique_ptr<service::ScanService> service;
  std::vector<std::unique_ptr<btr::Scanner>> scanners;
  ScanTable scan_table;
  double setup_s = TimedSetUp([&] {
    scanners.clear();
    service.reset();
    store = std::make_unique<s3sim::ObjectStore>();
    CompressAndUpload(table, store.get(), &scan_table);
    service::ScanServiceConfig service_config;
    // One fetch and one decode executor serve all tenants: the service,
    // not the machine, is the bottleneck, so its fair queues do the
    // scheduling, and the figures move less when other processes on the
    // host take CPU (multi-core work loses most when the host is busy).
    service_config.fetch_threads = 1;
    service_config.decode_threads = 1;
    service = std::make_unique<service::ScanService>(service_config);
    for (u32 t = 0; t < tenants; t++) {
      scanners.push_back(std::make_unique<btr::Scanner>(
          *service, "tenant" + std::to_string(t), store.get(), kTable, kPrefix));
      BTR_CHECK_MSG(scanners.back()->Open(config).ok(), "lakebench: Open failed");
    }
    // Fill the shared cache: one full scan of every column.
    Status warm = scanners[0]->Scan(ScanSpec{}, [](ColumnChunk&&) {});
    BTR_CHECK_MSG(warm.ok(), "lakebench: warm-up scan failed");
  });
  const CompressedRelation& rel = scan_table.compressed;
  double stored = static_cast<double>(StoredBytes(store.get(), kPrefix)) /
                  rel.UncompressedBytes();
  result.notes.push_back("table: " + std::to_string(rel.UncompressedBytes()) +
                         " B raw, " + std::to_string(rel.CompressedBytes()) +
                         " B compressed; cache " +
                         std::to_string(service->cache()->GetStats().bytes) + " B");

  std::vector<Reference> refs = ComputeReferences(table, pool);
  std::vector<QueryParts> parts;
  for (const Query& query : pool) parts.push_back(PartsOf(rel, query));
  // As on lake-cold: drop what only the traced run's replays read.
  table = Relation(kTable);
  if (!options.trace) scan_table.compressed = CompressedRelation();
  result.notes.push_back("pool: " + std::to_string(pool.size()) + " distinct queries, " +
                         std::to_string(tenants) + " tenants");
  std::vector<ScanSpec> specs;
  for (const Query& query : pool) specs.push_back(SpecFor(query, config));
  std::vector<std::vector<u32>> orders;
  for (u32 t = 0; t < tenants; t++) {
    orders.push_back(Permutation(static_cast<u32>(pool.size()), options.seed * 31 + t));
  }

  const double store_mb = StoredBytes(store.get()) / 1e6;
  auto excluded_mb = [store_mb] { return store_mb; };
  auto run_phase = [&](double seconds, size_t min_ops, SpanRecorder* spans) {
    return MeasurePhase(spans, excluded_mb, [&](std::vector<OpRecord>* all_ops) {
      StopRule stop(seconds, min_ops);
      std::atomic<size_t> done{0};
      std::vector<std::vector<OpRecord>> per_tenant(tenants);
      std::vector<std::thread> clients;
      for (u32 t = 0; t < tenants; t++) {
        clients.emplace_back([&, t] {
          for (u64 k = 0; stop.KeepGoing(done.load()); k++) {
            u64 op_id = (static_cast<u64>(t) << 40) | k;
            OpRecord op;
            op.key = orders[t][k % pool.size()];
            const Query& query = pool[op.key];
            ResultCollector collector(query.columns.size(), !query.filter.Empty(), false);
            ScanStats stats;
            u64 start = NowNs(), last_emit = 0;
            i64 root = spans ? spans->Begin("op", -1, op_id) : -1;
            Status status;
            {
              ScopedSpan span(spans, "scan", root, op_id);
              status = scanners[t]->Scan(
                  specs[op.key],
                  [&](ColumnChunk&& chunk) {
                    ScopedSpan emit(spans, "emit", span.id(), op_id);
                    collector.Add(std::move(chunk));
                    last_emit = NowNs();
                  },
                  &stats);
            }
            u64 end = last_emit != 0 ? last_emit : NowNs();
            if (spans) spans->End(root, end);
            collector.Finish();
            op.start_ns = start;
            op.end_ns = end;
            op.ms = Ms(end - start);
            op.ok = CheckOp(query, refs[op.key], status, collector, stats, &gate);
            op.gets_other = stats.requests;
            op.get_bytes = stats.bytes_fetched;
            op.requests = stats.requests + stats.cache_hits;
            op.moved_bytes = stats.bytes_fetched +
                             HitBytes(parts[op.key], collector.outcomes(), stats.cache_hits);
            op.user_bytes = refs[op.key].result_bytes;
            if (spans) {
              op.stats = std::move(stats);
              op.outcomes = collector.outcomes();
            }
            per_tenant[t].push_back(std::move(op));
            done.fetch_add(1);
          }
        });
      }
      for (std::thread& client : clients) client.join();
      for (auto& ops : per_tenant) {
        for (OpRecord& op : ops) all_ops->push_back(std::move(op));
      }
    });
  };

  if (!options.trace) {
    Phase phase = run_phase(options.seconds, MinSamplesFor(0.9), nullptr);
    CountOps(phase, &result);
    EndToEnd(phase, setup_s, stored, &result);
  } else {
    Phase untraced = run_phase(options.seconds / 2, 0, nullptr);
    SpanRecorder spans;
    Phase traced = run_phase(options.seconds / 2, 0, &spans);
    CountOps(untraced, &result);
    CountOps(traced, &result);
    std::map<std::string, double> m;
    double p95_sum = 0;
    for (u32 t = 0; t < tenants; t++) {
      p95_sum += Ms(service->GetTenantStats("tenant" + std::to_string(t)).queue_wait_p95_ns);
    }
    m["service.queue_wait_p95_ms"] = p95_sum / tenants;
    Replayer replayer(rel, nullptr, scanners[0]->resolved_name(), service->cache());
    ReplayScanPhase(traced, pool, &replayer);
    replayer.Report(std::max<double>(1, traced.ops.size()), &m);
    CommonLayers(untraced, traced, replayer.cpu_ns(), &m);
    if (replayer.layout_mismatches() + replayer.lookup_misses() > 0) {
      result.notes.push_back(
          "replay: layout mismatches " + std::to_string(replayer.layout_mismatches()) +
          ", cache lookup misses " + std::to_string(replayer.lookup_misses()));
    }
    PerLayer(m, &result);
    WriteSpans(options, traced, &result);
  }

  VerifyQueries(pool, refs,
                [&](const Query& query, ResultCollector* collector, ScanStats* stats) {
                  return scanners[0]->Scan(
                      SpecFor(query, config),
                      [&](ColumnChunk&& chunk) { collector->Add(std::move(chunk)); },
                      stats);
                },
                &gate, &result);
  scanners.clear();
  Finish(gate, &result);
  return result;
}

// ---------------------------------------------------------------------------
// ingest: one writer commits micro-batches, alternating a Public-BI-like
// and a lineitem-like table, each batch a new version of its table.
struct Batch {
  std::string table;
  std::vector<Relation> chunks;  // the Appends of one op
  std::vector<write::StreamingWriter::ColumnSpec> schema;
  Query all;            // every column, for reading the batch back
  u32 rows = 0;
  u64 user_bytes = 0;   // uncompressed bytes appended
  Reference reference;  // the batch read back in full
};

// Only the chunk slices of `rows` are kept: the benchmark holds them
// through the timed loop.
Batch MakeBatch(std::string table, const Relation& rows) {
  Batch batch;
  batch.table = std::move(table);
  for (const btr::Column& column : rows.columns()) {
    batch.schema.push_back({column.name(), column.type()});
    batch.all.columns.push_back(column.name());
  }
  for (u32 begin = 0; begin < rows.row_count(); begin += kIngestChunkRows) {
    batch.chunks.push_back(
        SliceRows(rows, begin, std::min(kIngestChunkRows, rows.row_count() - begin)));
  }
  batch.rows = rows.row_count();
  batch.user_bytes = rows.UncompressedBytes();
  batch.reference = ComputeReference(rows, batch.all);
  return batch;
}

RunResult RunIngest(const RunOptions& options) {
  RunResult result;
  Gate gate;
  // Batch sizes in row blocks; the pool alternates the two tables.
  // Three in four batches are one block, the rest two, so p50 sits among
  // the small batches and p90 among the large ones; the mean op stays
  // short enough for 100 ops in a 30 s run.
  const u32 kBatchBlocks[] = {1, 1, 1, 1, 1, 1, 2, 2};
  std::vector<Batch> batches;
  double heap_before_batches = HeapInUseMb();
  for (u32 i = 0; i < std::size(kBatchBlocks); i++) {
    u32 rows = kBatchBlocks[i] * btr::kBlockCapacity;
    u64 seed = options.seed * 1009 + i;
    batches.push_back(i % 2 == 0 ? MakeBatch("pbi", MakeLakeTable("pbi", rows, seed))
                                 : MakeBatch("lineitem", MakeLineitemBatch(rows, seed)));
  }
  // The batches stay live through the timed loop; heap_mb leaves them out,
  // as it leaves out the store's objects.
  double batches_mb = HeapInUseMb() - heap_before_batches;

  std::unique_ptr<s3sim::ObjectStore> store;
  std::map<std::string, u64> version;  // committed version per table
  std::map<std::string, u32> last_key;  // batch behind that version
  auto commit = [&](const Batch& batch, SpanRecorder* spans, i64 root,
                    u64 op_id, write::StreamingWriter* writer) {
    Status status;
    {
      ScopedSpan span(spans, "begin", root, op_id);
      status = writer->Begin(batch.schema);
    }
    for (const Relation& chunk : batch.chunks) {
      if (!status.ok()) break;
      ScopedSpan span(spans, "append", root, op_id);
      status = writer->Append(chunk);
    }
    if (status.ok()) {
      ScopedSpan span(spans, "commit", root, op_id);
      status = writer->Commit();
    }
    return status;
  };
  double setup_s = TimedSetUp([&] {
    store = std::make_unique<s3sim::ObjectStore>(WallClockStoreConfig());
    version.clear();
    // Each table starts with one committed version.
    for (u32 i = 0; i < 2; i++) {
      write::StreamingWriter writer(store.get(), batches[i].table, kPrefix);
      Status status = commit(batches[i], nullptr, -1, 0, &writer);
      BTR_CHECK_MSG(status.ok(), "lakebench: initial commit failed");
      version[batches[i].table] = writer.version();
      last_key[batches[i].table] = i;
    }
  });

  // Superseded versions are dropped between ops so the store stays small.
  auto drop_version = [&](const std::string& table, u64 v) {
    for (const std::string& key :
         store->ListKeys(std::string(kPrefix) + write::VersionedName(table, v) + ".")) {
      store->Delete(key);
    }
  };

  btr::Telemetry telemetry;
  auto run_phase = [&](double seconds, size_t min_ops, SpanRecorder* spans) {
    write::WriterConfig config;
    if (spans != nullptr) config.compression.telemetry = &telemetry;
    // Commits change what the store holds, so it is read at every sample.
    auto excluded_mb = [&] { return batches_mb + StoredBytes(store.get()) / 1e6; };
    return MeasurePhase(spans, excluded_mb, [&](std::vector<OpRecord>* ops) {
      StopRule stop(seconds, min_ops);
      for (u64 i = 0; stop.KeepGoing(ops->size()); i++) {
        OpRecord op;
        op.key = static_cast<u32>(i % batches.size());
        const Batch& batch = batches[op.key];
        telemetry.Reset();
        u64 puts0 = store->total_put_requests(), put_bytes0 = store->total_bytes_put();
        u64 gets0 = store->total_requests(), get_bytes0 = store->total_bytes_fetched();
        u64 start = NowNs();
        i64 root = spans ? spans->Begin("op", -1, i) : -1;
        write::StreamingWriter writer(store.get(), batch.table, kPrefix, config);
        Status status = commit(batch, spans, root, i, &writer);
        u64 end = NowNs();
        if (spans) spans->End(root, end);
        op.start_ns = start;
        op.end_ns = end;
        op.ms = Ms(end - start);
        u64 expected_version = version[batch.table] + 1;
        op.ok = gate.Expect(status.ok(), "ingest commit: " + status.ToString()) &&
                gate.Expect(writer.rows_appended() == batch.rows,
                            "ingest: rows appended differ from the batch") &&
                gate.Expect(writer.version() == expected_version,
                            "ingest: version is not the next one");
        op.puts = store->total_put_requests() - puts0;
        op.put_bytes = store->total_bytes_put() - put_bytes0;
        op.gets_other = store->total_requests() - gets0;
        op.get_bytes = store->total_bytes_fetched() - get_bytes0;
        op.requests = op.puts + op.gets_other;
        op.moved_bytes = op.put_bytes + op.get_bytes;
        op.stored_bytes = op.put_bytes;
        op.user_bytes = batch.user_bytes;
        op.tel_stats_ns = telemetry.stats_ns;
        op.tel_estimate_ns = telemetry.estimate_ns;
        op.tel_compress_ns = telemetry.compress_ns;
        if (op.ok) {
          drop_version(batch.table, version[batch.table]);
          version[batch.table] = expected_version;
          last_key[batch.table] = op.key;
        }
        ops->push_back(std::move(op));
      }
    });
  };

  if (!options.trace) {
    Phase phase = run_phase(options.seconds, MinSamplesFor(0.9), nullptr);
    result.notes.push_back("ingest batches hold " + std::to_string(batches_mb) + " MB");
    CountOps(phase, &result);
    double user = KeyMean(phase.ops, &OpRecord::user_bytes, "user bytes", &result);
    double stored =
        KeyMean(phase.ops, &OpRecord::stored_bytes, "stored bytes", &result, false);
    EndToEnd(phase, setup_s, user == 0 ? 0.0 : stored / user, &result, false);
  } else {
    Phase untraced = run_phase(options.seconds / 2, 0, nullptr);
    SpanRecorder spans;
    Phase traced = run_phase(options.seconds / 2, 0, &spans);
    CountOps(untraced, &result);
    CountOps(traced, &result);
    std::map<std::string, double> m;
    double ops = std::max<double>(1, traced.ops.size());
    u64 stats_ns = 0, estimate_ns = 0, compress_ns = 0;
    for (const OpRecord& op : traced.ops) {
      stats_ns += op.tel_stats_ns;
      estimate_ns += op.tel_estimate_ns;
      compress_ns += op.tel_compress_ns;
    }
    m["write.stats_ms"] = Ms(stats_ns) / ops;
    m["write.estimate_ms"] = Ms(estimate_ns) / ops;
    m["write.compress_ms"] = Ms(compress_ns) / ops;
    // Replay: zone maps of exactly the rows each op appended.
    std::map<u32, u64> weight;
    for (const OpRecord& op : traced.ops) weight[op.key]++;
    u64 zone_ns = 0, zone_cpu_ns = 0;
    for (const auto& [key, count] : weight) {
      u64 cpu0 = ThreadCpuNs(), t0 = NowNs();
      for (const Relation& chunk : batches[key].chunks) {
        for (const btr::Column& column : chunk.columns()) {
          btr::ColumnZoneMap zones = btr::ComputeColumnZoneMap(column);
          BTR_CHECK(!zones.zones.empty());
        }
      }
      zone_ns += (NowNs() - t0) * count;
      zone_cpu_ns += (ThreadCpuNs() - cpu0) * count;
    }
    m["btr.zonemap.compute_ms"] = Ms(zone_ns) / ops;
    // Compression runs on the writer's thread: Telemetry's compress time
    // is that layer's CPU.
    CommonLayers(untraced, traced, zone_cpu_ns + compress_ns, &m);
    PerLayer(m, &result);
    WriteSpans(options, traced, &result);
  }

  // Reopen the last committed version of each table and compare it, value
  // by value, with the batch it was written from.
  for (const auto& [table_name, key] : last_key) {
    const Batch& batch = batches[key];
    btr::Scanner scanner(store.get(), table_name, kPrefix);
    Status status = scanner.Open();
    ResultCollector collector(batch.all.columns.size(), false, true);
    ScanStats stats;
    if (status.ok()) {
      gate.Expect(scanner.resolved_name() ==
                      write::VersionedName(table_name, version[table_name]),
                  "ingest: reopened " + scanner.resolved_name() +
                      ", not the last committed version");
      status = scanner.Scan(
          SpecFor(batch.all, btr::ScanConfig()),
          [&](ColumnChunk&& chunk) { collector.Add(std::move(chunk)); }, &stats);
    }
    collector.Finish();
    std::string why = status.ToString();
    gate.Expect(status.ok() && CheckScan(batch.reference, collector, stats, true, &why),
                "ingest reopen " + table_name + ": " + why);
  }
  Finish(gate, &result);
  return result;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  RunResult result;
  if (options.workload == "lake-cold") {
    result = RunLakeCold(options);
  } else if (options.workload == "dash-warm") {
    result = RunDashWarm(options);
  } else {
    result = RunIngest(options);
  }
  return result;
}

}  // namespace lakebench
