// Block-level PredicateExpr evaluation on the compressed form.
//
// Leaves are evaluated per root scheme:
//
//   OneValue    O(1): compare the single stored value
//   RLE         O(runs): run arithmetic emits whole ranges
//   Dictionary  evaluate the comparison over the (small) dictionary, then
//               select rows whose code is in the matching-code set — run
//               arithmetic when the code vector is RLE, SIMD IN-scan
//               otherwise
//   Frequency   decide the dominant value once, scan only the exceptions
//   FastBP128   (ints, range ops) simd::SelectBp128Range — per-miniblock
//               frame envelopes prune or whole-accept 128 values at a
//               time, survivors are compared 32 lanes per instruction
//   otherwise   decode the value vector into scratch (no DecodedBlock /
//               null materialization) and run the SIMD compare kernels;
//               strings without a dictionary materialize fully
//
// NULL semantics: rows under the block's null bitmap store default values
// inside the encodings, so every leaf result is corrected with one
// AndNot(raw, nulls) — no per-scheme special-casing — and the null rows
// become the leaf's UNKNOWN set for Kleene AND/OR/NOT combination.
#include <algorithm>
#include <cstring>

#include "btr/predicate.h"
#include "btr/scheme_picker.h"
#include "btr/simd_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace btr {

namespace {

struct BlockHeader {
  ColumnType type;
  u32 count;
  u32 null_bytes;
  const u8* null_blob;
  const u8* body;     // [u8 scheme][payload]
  const u8* payload;  // body + 1
  u8 scheme;
};

BlockHeader ParseHeader(const u8* block) {
  BlockHeader h;
  h.type = static_cast<ColumnType>(block[0]);
  std::memcpy(&h.count, block + 1, sizeof(u32));
  std::memcpy(&h.null_bytes, block + 5, sizeof(u32));
  h.null_blob = block + 9;
  h.body = h.null_blob + h.null_bytes;
  h.scheme = h.body[0];
  h.payload = h.body + 1;
  return h;
}

RoaringBitmap AllRows(u32 count) {
  RoaringBitmap out;
  out.AddRange(0, count);
  out.RunOptimize();
  return out;
}

u64 BitsOf(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof(u64));
  return b;
}

// --- derived leaf comparison contexts ---------------------------------------

struct IntRange {
  i32 lo = 0;
  i32 hi = 0;
  bool empty = false;
};

IntRange DeriveIntRange(const PredicateExpr& leaf) {
  IntRange r;
  switch (leaf.op) {
    case CompareOp::kEq:
      r.lo = r.hi = leaf.int_lo;
      break;
    case CompareOp::kLt:
      r.empty = leaf.int_lo == INT32_MIN;
      r.lo = INT32_MIN;
      r.hi = r.empty ? INT32_MIN : leaf.int_lo - 1;
      break;
    case CompareOp::kLe:
      r.lo = INT32_MIN;
      r.hi = leaf.int_lo;
      break;
    case CompareOp::kGt:
      r.empty = leaf.int_lo == INT32_MAX;
      r.lo = r.empty ? INT32_MAX : leaf.int_lo + 1;
      r.hi = INT32_MAX;
      break;
    case CompareOp::kGe:
      r.lo = leaf.int_lo;
      r.hi = INT32_MAX;
      break;
    case CompareOp::kBetween:
      r.lo = leaf.int_lo;
      r.hi = leaf.int_hi;
      r.empty = r.lo > r.hi;
      break;
    case CompareOp::kIn:
      break;  // handled through the set, not a range
  }
  return r;
}

struct F64Range {
  double lo = -kDoubleInf;
  double hi = kDoubleInf;
  bool lo_strict = false;
  bool hi_strict = false;
};

F64Range DeriveF64Range(const PredicateExpr& leaf) {
  F64Range r;
  switch (leaf.op) {
    case CompareOp::kLt:
      r.hi = leaf.double_lo;
      r.hi_strict = true;
      break;
    case CompareOp::kLe:
      r.hi = leaf.double_lo;
      break;
    case CompareOp::kGt:
      r.lo = leaf.double_lo;
      r.lo_strict = true;
      break;
    case CompareOp::kGe:
      r.lo = leaf.double_lo;
      break;
    case CompareOp::kBetween:
      r.lo = leaf.double_lo;
      r.hi = leaf.double_hi;
      break;
    default:
      break;
  }
  return r;
}

bool F64RangeMatch(double v, const F64Range& r) {
  bool ge = r.lo_strict ? (v > r.lo) : (v >= r.lo);
  bool le = r.hi_strict ? (v < r.hi) : (v <= r.hi);
  return ge && le;
}

// Precomputed per (leaf, block) evaluation.
struct IntLeafCtx {
  bool is_set;
  IntRange range;
  const std::vector<i32>* set;

  explicit IntLeafCtx(const PredicateExpr& leaf)
      : is_set(leaf.op == CompareOp::kIn),
        range(DeriveIntRange(leaf)),
        set(&leaf.int_set) {}

  bool Match(i32 v) const {
    if (is_set) return std::binary_search(set->begin(), set->end(), v);
    return !range.empty && v >= range.lo && v <= range.hi;
  }
};

struct DoubleLeafCtx {
  bool is_bits;  // kEq / kIn: bit-pattern equality
  F64Range range;
  std::vector<u64> bits;  // sorted bit patterns

  explicit DoubleLeafCtx(const PredicateExpr& leaf)
      : is_bits(leaf.op == CompareOp::kEq || leaf.op == CompareOp::kIn) {
    if (leaf.op == CompareOp::kEq) {
      bits.push_back(BitsOf(leaf.double_lo));
    } else if (leaf.op == CompareOp::kIn) {
      bits.reserve(leaf.double_set.size());
      for (double v : leaf.double_set) bits.push_back(BitsOf(v));
      std::sort(bits.begin(), bits.end());
    } else {
      range = DeriveF64Range(leaf);
    }
  }

  bool Match(double v) const {
    if (is_bits) {
      return std::binary_search(bits.begin(), bits.end(), BitsOf(v));
    }
    return F64RangeMatch(v, range);
  }
};

bool MatchString(std::string_view v, const PredicateExpr& leaf) {
  switch (leaf.op) {
    case CompareOp::kEq:
      return v == leaf.string_lo;
    case CompareOp::kLt:
      return v < leaf.string_lo;
    case CompareOp::kLe:
      return v <= leaf.string_lo;
    case CompareOp::kGt:
      return v > leaf.string_lo;
    case CompareOp::kGe:
      return v >= leaf.string_lo;
    case CompareOp::kBetween:
      return v >= leaf.string_lo && v <= leaf.string_hi;
    case CompareOp::kIn:
      return std::binary_search(leaf.string_set.begin(),
                                leaf.string_set.end(), v);
  }
  return false;
}

// --- code-vector selection ---------------------------------------------------

// Rows whose dictionary code is in `codes` (sorted ascending): run
// arithmetic when the code vector is RLE-compressed, SIMD IN-scan of the
// decoded codes otherwise.
void SelectCodesIn(const u8* codes_vec, u32 count,
                   const std::vector<i32>& codes, RoaringBitmap* out) {
  if (codes.empty()) return;
  if (PeekIntScheme(codes_vec) == IntSchemeCode::kRle) {
    const u8* payload = codes_vec + 1;
    u32 run_count, values_bytes;
    std::memcpy(&run_count, payload, sizeof(u32));
    std::memcpy(&values_bytes, payload + 4, sizeof(u32));
    std::vector<i32> run_values(run_count + kDecodeSlack);
    std::vector<i32> run_lengths(run_count + kDecodeSlack);
    DecompressInts(payload + 8, run_count, run_values.data());
    DecompressInts(payload + 8 + values_bytes, run_count, run_lengths.data());
    u32 position = 0;
    for (u32 r = 0; r < run_count; r++) {
      u32 length = static_cast<u32>(run_lengths[r]);
      if (std::binary_search(codes.begin(), codes.end(), run_values[r])) {
        out->AddRange(position, position + length);
      }
      position += length;
    }
    return;
  }
  std::vector<i32> scratch(count + kDecodeSlack);
  DecompressInts(codes_vec, count, scratch.data());
  simd::SelectI32Set(scratch.data(), count, 0, codes, out);
}

// --- per-type leaf kernels ---------------------------------------------------
// All return raw matches over stored values; null correction happens once
// in the caller. `fast` reports whether a compressed-form path ran.

RoaringBitmap SelectIntLeafRaw(const BlockHeader& h, const PredicateExpr& leaf,
                               const CompressionConfig& config, bool* fast) {
  IntLeafCtx ctx(leaf);
  RoaringBitmap out;
  *fast = true;
  switch (static_cast<IntSchemeCode>(h.scheme)) {
    case IntSchemeCode::kOneValue: {
      i32 stored;
      std::memcpy(&stored, h.payload, sizeof(i32));
      return ctx.Match(stored) ? AllRows(h.count) : RoaringBitmap();
    }
    case IntSchemeCode::kRle: {
      u32 run_count, values_bytes;
      std::memcpy(&run_count, h.payload, sizeof(u32));
      std::memcpy(&values_bytes, h.payload + 4, sizeof(u32));
      std::vector<i32> run_values(run_count + kDecodeSlack);
      std::vector<i32> run_lengths(run_count + kDecodeSlack);
      DecompressInts(h.payload + 8, run_count, run_values.data());
      DecompressInts(h.payload + 8 + values_bytes, run_count,
                     run_lengths.data());
      u32 position = 0;
      for (u32 r = 0; r < run_count; r++) {
        u32 length = static_cast<u32>(run_lengths[r]);
        if (ctx.Match(run_values[r])) out.AddRange(position, position + length);
        position += length;
      }
      return out;
    }
    case IntSchemeCode::kDict: {
      u32 dict_count, codes_bytes;
      std::memcpy(&dict_count, h.payload, sizeof(u32));
      std::memcpy(&codes_bytes, h.payload + 4, sizeof(u32));
      const u8* codes_vec = h.payload + 8;
      const u8* dict_bytes = codes_vec + codes_bytes;
      std::vector<i32> matching_codes;
      for (u32 d = 0; d < dict_count; d++) {
        i32 entry;
        std::memcpy(&entry, dict_bytes + d * sizeof(i32), sizeof(i32));
        if (ctx.Match(entry)) matching_codes.push_back(static_cast<i32>(d));
      }
      SelectCodesIn(codes_vec, h.count, matching_codes, &out);
      return out;
    }
    case IntSchemeCode::kFrequency: {
      i32 top;
      u32 exception_count, bitmap_bytes;
      std::memcpy(&top, h.payload, sizeof(i32));
      std::memcpy(&exception_count, h.payload + 4, sizeof(u32));
      std::memcpy(&bitmap_bytes, h.payload + 8, sizeof(u32));
      RoaringBitmap exceptions =
          RoaringBitmap::Deserialize(h.payload + 12, nullptr);
      if (ctx.Match(top)) {
        out = RoaringBitmap::AndNot(AllRows(h.count), exceptions);
      }
      if (exception_count > 0) {
        std::vector<i32> exception_values(exception_count + kDecodeSlack);
        DecompressInts(h.payload + 12 + bitmap_bytes, exception_count,
                       exception_values.data());
        u32 e = 0;
        exceptions.ForEach([&](u32 position) {
          if (ctx.Match(exception_values[e++])) out.Add(position);
        });
      }
      return out;
    }
    case IntSchemeCode::kBp128: {
      if (!ctx.is_set) {
        if (!ctx.range.empty) {
          simd::SelectBp128Range(h.payload, h.count, 0, ctx.range.lo,
                                 ctx.range.hi, &out);
        }
        return out;
      }
      [[fallthrough]];  // IN over bit-packed data: scratch decode
    }
    default: {
      *fast = false;
      std::vector<i32> scratch(h.count + kDecodeSlack);
      DecompressInts(h.body, h.count, scratch.data());
      if (ctx.is_set) {
        simd::SelectI32Set(scratch.data(), h.count, 0, *ctx.set, &out);
      } else if (!ctx.range.empty) {
        simd::SelectI32Range(scratch.data(), h.count, 0, ctx.range.lo,
                             ctx.range.hi, &out);
      }
      (void)config;
      return out;
    }
  }
}

RoaringBitmap SelectDoubleLeafRaw(const BlockHeader& h,
                                  const PredicateExpr& leaf,
                                  const CompressionConfig& config,
                                  bool* fast) {
  DoubleLeafCtx ctx(leaf);
  RoaringBitmap out;
  *fast = true;
  switch (static_cast<DoubleSchemeCode>(h.scheme)) {
    case DoubleSchemeCode::kOneValue: {
      double stored;
      std::memcpy(&stored, h.payload, sizeof(double));
      return ctx.Match(stored) ? AllRows(h.count) : RoaringBitmap();
    }
    case DoubleSchemeCode::kRle: {
      u32 run_count, values_bytes;
      std::memcpy(&run_count, h.payload, sizeof(u32));
      std::memcpy(&values_bytes, h.payload + 4, sizeof(u32));
      std::vector<double> run_values(run_count + kDecodeSlack);
      std::vector<i32> run_lengths(run_count + kDecodeSlack);
      DecompressDoubles(h.payload + 8, run_count, run_values.data());
      DecompressInts(h.payload + 8 + values_bytes, run_count,
                     run_lengths.data());
      u32 position = 0;
      for (u32 r = 0; r < run_count; r++) {
        u32 length = static_cast<u32>(run_lengths[r]);
        if (ctx.Match(run_values[r])) out.AddRange(position, position + length);
        position += length;
      }
      return out;
    }
    case DoubleSchemeCode::kDict: {
      u32 dict_count, codes_bytes;
      std::memcpy(&dict_count, h.payload, sizeof(u32));
      std::memcpy(&codes_bytes, h.payload + 4, sizeof(u32));
      const u8* codes_vec = h.payload + 8;
      const u8* dict_bytes = codes_vec + codes_bytes;
      std::vector<i32> matching_codes;
      for (u32 d = 0; d < dict_count; d++) {
        double entry;
        std::memcpy(&entry, dict_bytes + d * sizeof(double), sizeof(double));
        if (ctx.Match(entry)) matching_codes.push_back(static_cast<i32>(d));
      }
      SelectCodesIn(codes_vec, h.count, matching_codes, &out);
      return out;
    }
    case DoubleSchemeCode::kFrequency: {
      double top;
      u32 exception_count, bitmap_bytes;
      std::memcpy(&top, h.payload, sizeof(double));
      std::memcpy(&exception_count, h.payload + 8, sizeof(u32));
      std::memcpy(&bitmap_bytes, h.payload + 12, sizeof(u32));
      RoaringBitmap exceptions =
          RoaringBitmap::Deserialize(h.payload + 16, nullptr);
      if (ctx.Match(top)) {
        out = RoaringBitmap::AndNot(AllRows(h.count), exceptions);
      }
      if (exception_count > 0) {
        std::vector<double> exception_values(exception_count + kDecodeSlack);
        DecompressDoubles(h.payload + 16 + bitmap_bytes, exception_count,
                          exception_values.data());
        u32 e = 0;
        exceptions.ForEach([&](u32 position) {
          if (ctx.Match(exception_values[e++])) out.Add(position);
        });
      }
      return out;
    }
    default: {
      *fast = false;
      std::vector<double> scratch(h.count + kDecodeSlack);
      DecompressDoubles(h.body, h.count, scratch.data());
      if (ctx.is_bits) {
        simd::SelectF64BitsSet(scratch.data(), h.count, 0, ctx.bits, &out);
      } else {
        simd::SelectF64Range(scratch.data(), h.count, 0, ctx.range.lo,
                             ctx.range.hi, ctx.range.lo_strict,
                             ctx.range.hi_strict, &out);
      }
      (void)config;
      return out;
    }
  }
}

RoaringBitmap SelectStringLeafRaw(const u8* block, const BlockHeader& h,
                                  const PredicateExpr& leaf,
                                  const CompressionConfig& config,
                                  bool* fast) {
  RoaringBitmap out;
  *fast = true;
  switch (static_cast<StringSchemeCode>(h.scheme)) {
    case StringSchemeCode::kOneValue: {
      u32 length;
      std::memcpy(&length, h.payload, sizeof(u32));
      std::string_view stored(reinterpret_cast<const char*>(h.payload + 4),
                              length);
      return MatchString(stored, leaf) ? AllRows(h.count) : RoaringBitmap();
    }
    case StringSchemeCode::kDict: {
      u32 dict_count, pool_bytes, codes_bytes;
      std::memcpy(&dict_count, h.payload, sizeof(u32));
      std::memcpy(&pool_bytes, h.payload + 4, sizeof(u32));
      std::memcpy(&codes_bytes, h.payload + 8, sizeof(u32));
      (void)pool_bytes;
      const u8* codes_vec = h.payload + 12;
      const u8* tuple_bytes = codes_vec + codes_bytes;
      const char* pool = reinterpret_cast<const char*>(
          tuple_bytes + dict_count * sizeof(StringSlot));
      std::vector<i32> matching_codes;
      for (u32 d = 0; d < dict_count; d++) {
        StringSlot tuple;
        std::memcpy(&tuple, tuple_bytes + d * sizeof(StringSlot),
                    sizeof(StringSlot));
        if (MatchString(std::string_view(pool + tuple.offset, tuple.length),
                        leaf)) {
          matching_codes.push_back(static_cast<i32>(d));
        }
      }
      SelectCodesIn(codes_vec, h.count, matching_codes, &out);
      return out;
    }
    default: {
      *fast = false;
      DecodedBlock decoded;
      DecompressBlock(block, &decoded, config);
      for (u32 i = 0; i < decoded.count; i++) {
        if (MatchString(decoded.strings.Get(i), leaf)) out.Add(i);
      }
      return out;
    }
  }
}

// --- Kleene recursion --------------------------------------------------------

u32 CountLeaves(const PredicateExpr& expr) {
  u32 count = 0;
  expr.ForEachLeaf([&](const PredicateExpr&) { count++; });
  return count;
}

// Generic over how a leaf is evaluated, so the compressed-form engine and
// the decoded-reference engine share one Kleene combinator.
template <typename LeafFn>
EvalResult EvalNode(const PredicateExpr& expr, u32 row_count,
                    const LeafFn& eval_leaf, u32* leaf_index) {
  switch (expr.kind) {
    case PredicateExpr::Kind::kNone: {
      EvalResult all;
      all.pass = AllRows(row_count);
      return all;
    }
    case PredicateExpr::Kind::kLeaf: {
      EvalResult r = eval_leaf(expr, *leaf_index);
      (*leaf_index)++;
      return r;
    }
    case PredicateExpr::Kind::kNot: {
      EvalResult child = EvalNode(expr.children[0], row_count, eval_leaf,
                                  leaf_index);
      EvalResult out;
      out.unknown = child.unknown;
      out.pass = RoaringBitmap::AndNot(
          RoaringBitmap::AndNot(AllRows(row_count), child.pass),
          child.unknown);
      return out;
    }
    case PredicateExpr::Kind::kAnd: {
      EvalResult acc;
      acc.pass = AllRows(row_count);
      for (size_t i = 0; i < expr.children.size(); i++) {
        if (acc.pass.Empty() && acc.unknown.Empty()) {
          // FALSE absorbs: skip the rest, keeping leaf numbering aligned.
          *leaf_index += CountLeaves(expr.children[i]);
          continue;
        }
        EvalResult r = EvalNode(expr.children[i], row_count, eval_leaf,
                                leaf_index);
        RoaringBitmap pass = RoaringBitmap::And(acc.pass, r.pass);
        // UNKNOWN where both sides are at least UNKNOWN but not both TRUE.
        RoaringBitmap a = RoaringBitmap::Or(acc.pass, acc.unknown);
        RoaringBitmap b = RoaringBitmap::Or(r.pass, r.unknown);
        acc.unknown = RoaringBitmap::AndNot(RoaringBitmap::And(a, b), pass);
        acc.pass = std::move(pass);
      }
      return acc;
    }
    case PredicateExpr::Kind::kOr: {
      EvalResult acc;
      for (size_t i = 0; i < expr.children.size(); i++) {
        if (acc.pass.Cardinality() == row_count) {
          *leaf_index += CountLeaves(expr.children[i]);  // TRUE absorbs
          continue;
        }
        EvalResult r = EvalNode(expr.children[i], row_count, eval_leaf,
                                leaf_index);
        RoaringBitmap pass = RoaringBitmap::Or(acc.pass, r.pass);
        acc.unknown = RoaringBitmap::AndNot(
            RoaringBitmap::Or(acc.unknown, r.unknown), pass);
        acc.pass = std::move(pass);
      }
      return acc;
    }
  }
  return EvalResult();
}

void CountLeafMetric(bool fast) {
  static obs::Counter& fast_counter =
      obs::Registry::Get().GetCounter("btr.pred.leaf_fast_path");
  static obs::Counter& slow_counter =
      obs::Registry::Get().GetCounter("btr.pred.leaf_materialized");
  (fast ? fast_counter : slow_counter).Add();
}

}  // namespace

EvalResult EvaluateExpr(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const u8*(const std::string&)>& block_of,
    const CompressionConfig& config, std::vector<LeafEvalStats>* leaf_stats) {
  BTR_TRACE_SPAN("btr.pred.eval");
  auto eval_leaf = [&](const PredicateExpr& leaf, u32 index) {
    const u8* block = block_of(leaf.column);
    BTR_CHECK(block != nullptr);
    BlockHeader h = ParseHeader(block);
    BTR_CHECK(h.type == leaf.type);
    bool fast = false;
    RoaringBitmap raw;
    switch (leaf.type) {
      case ColumnType::kInteger:
        raw = SelectIntLeafRaw(h, leaf, config, &fast);
        break;
      case ColumnType::kDouble:
        raw = SelectDoubleLeafRaw(h, leaf, config, &fast);
        break;
      case ColumnType::kString:
        raw = SelectStringLeafRaw(block, h, leaf, config, &fast);
        break;
    }
    raw.RunOptimize();
    CountLeafMetric(fast);
    if (leaf_stats != nullptr && index < leaf_stats->size()) {
      ((*leaf_stats)[index].*(fast ? &LeafEvalStats::fast_path
                                   : &LeafEvalStats::materialized))++;
    }
    EvalResult out;
    if (h.null_bytes > 0) {
      // NULL rows store default values inside the encodings; pull them
      // back out of the raw matches and report them as UNKNOWN.
      RoaringBitmap nulls = RoaringBitmap::Deserialize(h.null_blob, nullptr);
      out.pass = RoaringBitmap::AndNot(raw, nulls);
      out.unknown = std::move(nulls);
    } else {
      out.pass = std::move(raw);
    }
    return out;
  };
  u32 leaf_index = 0;
  return EvalNode(expr, row_count, eval_leaf, &leaf_index);
}

EvalResult EvaluateExprDecoded(
    const PredicateExpr& expr, u32 row_count,
    const std::function<const DecodedBlock*(const std::string&)>& decoded_of) {
  auto eval_leaf = [&](const PredicateExpr& leaf, u32) {
    const DecodedBlock* d = decoded_of(leaf.column);
    BTR_CHECK(d != nullptr);
    BTR_CHECK(d->type == leaf.type);
    EvalResult out;
    // Both ternary operands must be lvalues: IntLeafCtx keeps a pointer
    // into the chosen leaf's int_set, so a prvalue operand would make the
    // ternary copy `leaf` into a temporary and leave the ctx dangling.
    static const PredicateExpr kIntDummy = PredicateExpr::EqualsInt("", 0);
    static const PredicateExpr kDoubleDummy =
        PredicateExpr::EqualsDouble("", 0);
    IntLeafCtx int_ctx(leaf.type == ColumnType::kInteger ? leaf : kIntDummy);
    DoubleLeafCtx double_ctx(leaf.type == ColumnType::kDouble ? leaf
                                                              : kDoubleDummy);
    for (u32 i = 0; i < d->count; i++) {
      if (d->IsNull(i)) {
        out.unknown.Add(i);
        continue;
      }
      bool match = false;
      switch (leaf.type) {
        case ColumnType::kInteger:
          match = int_ctx.Match(d->ints[i]);
          break;
        case ColumnType::kDouble:
          match = double_ctx.Match(d->doubles[i]);
          break;
        case ColumnType::kString:
          match = MatchString(d->strings.Get(i), leaf);
          break;
      }
      if (match) out.pass.Add(i);
    }
    out.pass.RunOptimize();
    out.unknown.RunOptimize();
    return out;
  };
  u32 leaf_index = 0;
  return EvalNode(expr, row_count, eval_leaf, &leaf_index);
}

RoaringBitmap SelectMatches(const u8* block, const PredicateExpr& expr,
                            const CompressionConfig& config) {
  BlockHeader h = ParseHeader(block);
  EvalResult r = EvaluateExpr(
      expr, h.count,
      [block](const std::string&) { return block; }, config, nullptr);
  return std::move(r.pass);
}

u32 CountMatches(const u8* block, const PredicateExpr& expr,
                 const CompressionConfig& config) {
  return static_cast<u32>(SelectMatches(block, expr, config).Cardinality());
}

bool HasFastPath(const u8* block, const PredicateExpr& leaf) {
  BlockHeader h = ParseHeader(block);
  if (!leaf.IsLeaf() || h.type != leaf.type) return false;
  switch (h.type) {
    case ColumnType::kInteger:
      switch (static_cast<IntSchemeCode>(h.scheme)) {
        case IntSchemeCode::kOneValue:
        case IntSchemeCode::kRle:
        case IntSchemeCode::kDict:
        case IntSchemeCode::kFrequency:
          return true;
        case IntSchemeCode::kBp128:
          // Range ops ride the miniblock-pruning kernel; IN does not.
          return leaf.op != CompareOp::kIn;
        default:
          return false;
      }
    case ColumnType::kDouble:
      switch (static_cast<DoubleSchemeCode>(h.scheme)) {
        case DoubleSchemeCode::kOneValue:
        case DoubleSchemeCode::kRle:
        case DoubleSchemeCode::kDict:
        case DoubleSchemeCode::kFrequency:
          return true;
        default:
          return false;
      }
    case ColumnType::kString:
      switch (static_cast<StringSchemeCode>(h.scheme)) {
        case StringSchemeCode::kOneValue:
        case StringSchemeCode::kDict:
          return true;
        default:
          return false;
      }
  }
  return false;
}

}  // namespace btr
