// Typed packed column segments (storage/column_segment.h) and their
// branch-free kernels (storage/column_kernel.h): promotion / demotion
// round-trips (NULLs, NaN doubles, cross-pool strings), kernel equivalence
// against the per-row EvalCompOp / Value::Hash golden, batched multi-tuple
// erase vs repeated single Erase, and prepared-plan revalidation across a
// promote -> mutate -> demote sequence.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "algebra/executor.h"
#include "algebra/provider.h"
#include "esql/parser.h"
#include "expr/comp_op.h"
#include "oracles/executor_reference.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "storage/column_kernel.h"
#include "storage/column_segment.h"
#include "storage/relation.h"
#include "storage/tuple.h"
#include "types/string_pool.h"
#include "types/value.h"

namespace eve {
namespace {

using Encoding = ColumnSegment::Encoding;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<Value> Ints(std::initializer_list<int64_t> xs) {
  std::vector<Value> out;
  for (int64_t x : xs) out.push_back(Value(x));
  return out;
}

void ExpectRoundTrips(const ColumnSegment& seg,
                      const std::vector<Value>& golden) {
  ASSERT_EQ(seg.size(), static_cast<int64_t>(golden.size()));
  for (int64_t i = 0; i < seg.size(); ++i) {
    // Compare() distinguishes what operator== blurs (INT 3 vs DOUBLE 3.0),
    // so a round-trip that silently changed the tag would be caught.
    EXPECT_EQ(seg.ValueAt(i).Compare(golden[static_cast<size_t>(i)]),
              std::strong_ordering::equal)
        << "row " << i << ": " << seg.ValueAt(i).ToString() << " vs "
        << golden[static_cast<size_t>(i)].ToString();
    EXPECT_EQ(seg.ValueAt(i).type(), golden[static_cast<size_t>(i)].type())
        << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Promotion / demotion round-trips.

TEST(ColumnSegment, UniformIntsPack) {
  const std::vector<Value> vals = Ints({5, -1, 0, 1 << 20});
  const ColumnSegment seg = ColumnSegment::FromValues(vals);
  EXPECT_EQ(seg.encoding(), Encoding::kInt64);
  EXPECT_TRUE(seg.all_int64());
  EXPECT_FALSE(seg.has_exceptions());
  ExpectRoundTrips(seg, vals);
}

TEST(ColumnSegment, SparseExceptionsStayPacked) {
  // 32 ints + one NULL + one NaN double: well under MaxExceptions(34), so
  // the column stays packed with a two-entry sidecar.
  std::vector<Value> vals;
  for (int64_t i = 0; i < 16; ++i) vals.push_back(Value(i));
  vals.push_back(Value());      // NULL.
  vals.push_back(Value(kNaN));  // NaN double.
  for (int64_t i = 16; i < 32; ++i) vals.push_back(Value(i));
  const ColumnSegment seg = ColumnSegment::FromValues(vals);
  EXPECT_EQ(seg.encoding(), Encoding::kInt64);
  EXPECT_TRUE(seg.has_exceptions());
  EXPECT_FALSE(seg.all_int64());  // The historic flag sees the NULL.
  ASSERT_EQ(seg.exception_rows().size(), 2u);
  EXPECT_EQ(seg.exception_rows()[0], 16);
  EXPECT_EQ(seg.exception_rows()[1], 17);
  EXPECT_TRUE(seg.FindException(16) != nullptr);
  EXPECT_TRUE(seg.FindException(15) == nullptr);
  ExpectRoundTrips(seg, vals);
  // NaN round-trips as a NaN double, not as the placeholder word.
  EXPECT_TRUE(std::isnan(seg.ValueAt(17).AsDouble()));
}

TEST(ColumnSegment, GenuinelyMixedGoesTagged) {
  // Half ints, half doubles: exceptions would exceed the sidecar bound, so
  // FromValues picks the tagged layout directly.
  std::vector<Value> vals;
  for (int64_t i = 0; i < 16; ++i) {
    vals.push_back(Value(i));
    vals.push_back(Value(static_cast<double>(i) + 0.5));
  }
  const ColumnSegment seg = ColumnSegment::FromValues(vals);
  EXPECT_EQ(seg.encoding(), Encoding::kTagged);
  EXPECT_FALSE(seg.all_int64());
  ExpectRoundTrips(seg, vals);
}

TEST(ColumnSegment, UniformStringsPackWithCrossPoolException) {
  StringPool other;
  std::vector<Value> vals;
  for (int i = 0; i < 12; ++i) vals.push_back(Value("s" + std::to_string(i % 4)));
  vals.push_back(Value("s1", other));  // Same text, different pool.
  vals.push_back(Value());             // NULL.
  const ColumnSegment seg = ColumnSegment::FromValues(vals);
  EXPECT_EQ(seg.encoding(), Encoding::kString);
  EXPECT_FALSE(seg.all_int64());
  EXPECT_EQ(seg.exception_rows().size(), 2u);
  ExpectRoundTrips(seg, vals);
  // Content equality across pools still holds through the sidecar.
  EXPECT_TRUE(seg.RowEqualsValue(12, Value("s1")));
  EXPECT_TRUE(seg.RowEqualsRow(12, seg, 1));  // "s1" packed at row 1.
  EXPECT_FALSE(seg.RowEqualsValue(13, Value("s1")));  // The NULL row.
}

TEST(ColumnSegment, AppendAdoptsFirstValueEncoding) {
  ColumnSegment ints;
  ints.Append(Value(static_cast<int64_t>(7)));
  EXPECT_EQ(ints.encoding(), Encoding::kInt64);

  ColumnSegment strs;
  strs.Append(Value("x"));
  EXPECT_EQ(strs.encoding(), Encoding::kString);

  ColumnSegment nulls;
  nulls.Append(Value());
  EXPECT_EQ(nulls.encoding(), Encoding::kTagged);
  EXPECT_FALSE(nulls.all_int64());
}

TEST(ColumnSegment, SidecarOverflowDemotesAndPreservesValues) {
  ColumnSegment seg;
  std::vector<Value> golden;
  auto push = [&](const Value& v) {
    seg.Append(v);
    golden.push_back(v);
  };
  push(Value(static_cast<int64_t>(1)));
  EXPECT_EQ(seg.encoding(), Encoding::kInt64);
  // Feed doubles until the sidecar bound forces a demotion; every value
  // must survive the rewrite bit-exact.
  int64_t i = 0;
  while (seg.encoding() == Encoding::kInt64) {
    push(Value(static_cast<double>(++i) + 0.25));
    ASSERT_LT(i, 100) << "demotion never happened";
  }
  EXPECT_EQ(seg.encoding(), Encoding::kTagged);
  EXPECT_FALSE(seg.has_exceptions());
  ExpectRoundTrips(seg, golden);
  // Demoted segments keep accepting anything.
  push(Value("now a string"));
  ExpectRoundTrips(seg, golden);
}

TEST(ColumnSegment, EraseRowsRemapsExceptionsAndPreservesPacking) {
  // Exceptions at rows 3 (NULL) and 7 (double); erase a packed row below,
  // one exception, and a packed row between them.
  std::vector<Value> vals = Ints({10, 11, 12, 0, 14, 15, 16, 0, 18, 19});
  vals[3] = Value();
  vals[7] = Value(7.5);
  ColumnSegment seg = ColumnSegment::FromValues(vals);
  ASSERT_EQ(seg.encoding(), Encoding::kInt64);

  const std::vector<int64_t> doomed = {1, 3, 5};
  seg.EraseRows(doomed);
  std::vector<Value> golden;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i != 1 && i != 3 && i != 5) golden.push_back(vals[i]);
  }
  EXPECT_EQ(seg.encoding(), Encoding::kInt64);  // Packing preserved.
  ASSERT_EQ(seg.exception_rows().size(), 1u);
  EXPECT_EQ(seg.exception_rows()[0], 4);  // Row 7, minus 3 doomed below it.
  ExpectRoundTrips(seg, golden);

  // Erasing everything resets to the pristine state: the next append is
  // free to pick a new encoding.
  std::vector<int64_t> all;
  for (int64_t r = 0; r < seg.size(); ++r) all.push_back(r);
  seg.EraseRows(all);
  EXPECT_TRUE(seg.empty());
  EXPECT_TRUE(seg.all_int64());  // Vacuously, like a fresh column.
  seg.Append(Value("fresh"));
  EXPECT_EQ(seg.encoding(), Encoding::kString);
}

TEST(ColumnSegment, AppendGatheredAdoptsAndFallsBack) {
  std::vector<Value> vals = Ints({0, 1, 2, 3, 4, 5, 6, 7});
  vals[2] = Value();  // One exception in the source.
  const ColumnSegment src = ColumnSegment::FromValues(vals);
  ASSERT_EQ(src.encoding(), Encoding::kInt64);

  // Pristine target adopts the packed encoding and honors exceptions.
  ColumnSegment dst;
  const std::vector<int64_t> rows = {7, 2, 2, 0, 5};
  dst.AppendGathered(src, rows.data(), rows.size());
  EXPECT_EQ(dst.encoding(), Encoding::kInt64);
  std::vector<Value> golden;
  for (int64_t r : rows) golden.push_back(vals[static_cast<size_t>(r)]);
  ExpectRoundTrips(dst, golden);

  // Gathering into an incompatible encoding falls back to generic appends
  // (string target fed ints routes every row through the sidecar/demote
  // machinery, never through a raw word copy).
  ColumnSegment strs;
  strs.Append(Value("seed"));
  strs.AppendGathered(src, rows.data(), rows.size());
  std::vector<Value> golden2{Value("seed")};
  golden2.insert(golden2.end(), golden.begin(), golden.end());
  ExpectRoundTrips(strs, golden2);
}

// ---------------------------------------------------------------------------
// Kernel equivalence against the per-row golden.

// A second pool that outlives the Values interned into it (cross-pool
// corpus entries reference it long after the builder returns).
StringPool& OtherPool() {
  static StringPool pool;
  return pool;
}

// The segment corpus: every encoding, with and without exceptions.
std::vector<std::vector<Value>> KernelCorpus() {
  StringPool& other = OtherPool();
  std::vector<std::vector<Value>> corpus;
  // Packed ints, no exceptions.
  corpus.push_back(Ints({5, 2, 9, 2, 7, 500, -3, 0}));
  // Packed ints with NULL / NaN / double / string exceptions.
  {
    std::vector<Value> v = Ints({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
    v[3] = Value();
    v[6] = Value(kNaN);
    v[9] = Value(2.0);  // Numerically equal to the int 2 elsewhere.
    corpus.push_back(std::move(v));
  }
  // Packed strings with a cross-pool and a NULL exception.
  {
    std::vector<Value> v;
    for (int i = 0; i < 10; ++i) v.push_back(Value("k" + std::to_string(i % 3)));
    v[4] = Value("k1", other);
    v[8] = Value();
    corpus.push_back(std::move(v));
  }
  // Tagged mixed.
  {
    std::vector<Value> v;
    for (int i = 0; i < 12; ++i) {
      v.push_back(i % 2 == 0 ? Value(static_cast<int64_t>(i))
                             : Value(static_cast<double>(i) + 0.5));
    }
    corpus.push_back(std::move(v));
  }
  return corpus;
}

std::vector<Value> RhsCorpus() {
  StringPool& other = OtherPool();
  return {Value(static_cast<int64_t>(2)), Value(2.0),  Value(2.5),
          Value(kNaN),                    Value(),     Value("k1"),
          Value("k1", other),             Value("zz")};
}

constexpr CompOp kAllOps[] = {CompOp::kLess,         CompOp::kLessEqual,
                              CompOp::kEqual,        CompOp::kGreaterEqual,
                              CompOp::kGreater,      CompOp::kNotEqual};

TEST(ColumnKernel, CompareConstMatchesGolden) {
  for (const std::vector<Value>& vals : KernelCorpus()) {
    const ColumnSegment seg = ColumnSegment::FromValues(vals);
    for (const Value& rhs : RhsCorpus()) {
      for (const CompOp op : kAllOps) {
        // Pre-set an alternating mask so the AND-fold (not just the raw
        // comparison) is verified.
        std::vector<uint8_t> mask(vals.size());
        for (size_t i = 0; i < mask.size(); ++i) mask[i] = i % 3 == 0 ? 0 : 1;
        std::vector<uint8_t> golden = mask;
        for (size_t i = 0; i < vals.size(); ++i) {
          golden[i] &= EvalCompOp(op, vals[i], rhs) ? 1 : 0;
        }
        AndCompareColumnConst(op, seg, rhs, mask.data());
        EXPECT_EQ(mask, golden)
            << CompOpToString(op) << " rhs=" << rhs.ToString()
            << " enc=" << static_cast<int>(seg.encoding());
      }
    }
  }
}

TEST(ColumnKernel, CompareColumnsMatchesGolden) {
  const auto corpus = KernelCorpus();
  for (const std::vector<Value>& lv : corpus) {
    for (const std::vector<Value>& rv : corpus) {
      const size_t n = std::min(lv.size(), rv.size());
      const std::vector<Value> lhs_vals(lv.begin(), lv.begin() + n);
      const std::vector<Value> rhs_vals(rv.begin(), rv.begin() + n);
      const ColumnSegment lhs = ColumnSegment::FromValues(lhs_vals);
      const ColumnSegment rhs = ColumnSegment::FromValues(rhs_vals);
      // Also pit packed against tagged layouts of the same data.
      const ColumnSegment rhs_tagged = ColumnSegment::TaggedFromValues(rhs_vals);
      for (const ColumnSegment* r : {&rhs, &rhs_tagged}) {
        for (const CompOp op : kAllOps) {
          std::vector<uint8_t> mask(n, 1);
          std::vector<uint8_t> golden(n, 1);
          for (size_t i = 0; i < n; ++i) {
            golden[i] = EvalCompOp(op, lhs_vals[i], rhs_vals[i]) ? 1 : 0;
          }
          AndCompareColumns(op, lhs, *r, mask.data());
          EXPECT_EQ(mask, golden) << CompOpToString(op);
        }
      }
    }
  }
}

TEST(ColumnKernel, CompareGatherMatchesGolden) {
  const auto corpus = KernelCorpus();
  for (const std::vector<Value>& lv : corpus) {
    const ColumnSegment lhs = ColumnSegment::FromValues(lv);
    // Gather with repeats and out-of-order rows.
    std::vector<int64_t> lrows;
    for (size_t i = 0; i < lv.size(); ++i) {
      lrows.push_back(static_cast<int64_t>((i * 5 + 3) % lv.size()));
    }
    const int64_t n = static_cast<int64_t>(lrows.size());
    // Column-vs-constant.
    for (const Value& rhs : RhsCorpus()) {
      for (const CompOp op : kAllOps) {
        std::vector<uint8_t> mask(lrows.size(), 1);
        std::vector<uint8_t> golden(lrows.size(), 1);
        for (int64_t i = 0; i < n; ++i) {
          golden[i] = EvalCompOp(op, lv[static_cast<size_t>(lrows[i])], rhs);
        }
        AndCompareGather(op, lhs, lrows.data(), nullptr, nullptr, &rhs, n,
                         mask.data());
        EXPECT_EQ(mask, golden) << CompOpToString(op);
      }
    }
    // Column-vs-column with independent row arrays.
    for (const std::vector<Value>& rv : corpus) {
      const ColumnSegment rhs = ColumnSegment::FromValues(rv);
      std::vector<int64_t> rrows;
      for (int64_t i = 0; i < n; ++i) {
        rrows.push_back((i * 7 + 1) % static_cast<int64_t>(rv.size()));
      }
      for (const CompOp op : kAllOps) {
        std::vector<uint8_t> mask(lrows.size(), 1);
        std::vector<uint8_t> golden(lrows.size(), 1);
        for (int64_t i = 0; i < n; ++i) {
          golden[i] = EvalCompOp(op, lv[static_cast<size_t>(lrows[i])],
                                 rv[static_cast<size_t>(rrows[i])]);
        }
        AndCompareGather(op, lhs, lrows.data(), &rhs, rrows.data(), nullptr, n,
                         mask.data());
        EXPECT_EQ(mask, golden) << CompOpToString(op);
      }
    }
  }
}

TEST(ColumnKernel, HashesMatchValueAndTupleHash) {
  for (const std::vector<Value>& vals : KernelCorpus()) {
    for (const bool tagged : {false, true}) {
      const ColumnSegment seg =
          tagged ? ColumnSegment::TaggedFromValues(vals)
                 : ColumnSegment::FromValues(vals);
      const int64_t n = seg.size();
      std::vector<size_t> hashes(static_cast<size_t>(n), 0);
      HashColumn(seg, hashes.data());
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hashes[static_cast<size_t>(i)],
                  vals[static_cast<size_t>(i)].Hash())
            << "row " << i << " tagged=" << tagged;
      }
      // One FNV mix step per row reproduces the tuple-hash recurrence.
      std::vector<size_t> acc(static_cast<size_t>(n), kTupleHashBasis);
      MixHashColumn(seg, acc.data());
      std::vector<size_t> gather_acc(static_cast<size_t>(n), kTupleHashBasis);
      std::vector<int64_t> ident;
      for (int64_t i = 0; i < n; ++i) ident.push_back(i);
      MixHashColumnGather(seg, ident.data(), n, gather_acc.data());
      for (int64_t i = 0; i < n; ++i) {
        const size_t want =
            (kTupleHashBasis ^ vals[static_cast<size_t>(i)].Hash()) *
            kTupleHashPrime;
        EXPECT_EQ(acc[static_cast<size_t>(i)], want) << "row " << i;
        EXPECT_EQ(gather_acc[static_cast<size_t>(i)], want) << "row " << i;
      }
    }
  }
}

TEST(ColumnKernel, RelationTupleHashesMatchRowHash) {
  // End-to-end: the columnar hash pipeline over a relation mixing packed
  // ints (with exceptions) and packed strings equals Tuple::Hash per row.
  Relation rel("R", Schema({Attribute::Make("A", DataType::kInt64, 10),
                            Attribute::Make("S", DataType::kString, 20)}));
  StringPool other;
  for (int64_t i = 0; i < 20; ++i) {
    Tuple t;
    if (i == 7) {
      t.Append(Value());
    } else if (i == 11) {
      t.Append(Value(static_cast<double>(i)));
    } else {
      t.Append(Value(i));
    }
    if (i == 13) {
      t.Append(Value("p" + std::to_string(i % 5), other));
    } else {
      t.Append(Value("p" + std::to_string(i % 5)));
    }
    rel.InsertUnchecked(std::move(t));
  }
  ASSERT_EQ(rel.Segment(0).encoding(), Encoding::kInt64);
  ASSERT_EQ(rel.Segment(1).encoding(), Encoding::kString);
  const std::vector<size_t> hashes = rel.ComputeTupleHashes();
  for (int64_t i = 0; i < rel.cardinality(); ++i) {
    EXPECT_EQ(hashes[static_cast<size_t>(i)], rel.TupleAt(i).Hash())
        << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Batched erase.

Relation MixedRelation() {
  Relation rel("R", Schema({Attribute::Make("K", DataType::kInt64, 10),
                            Attribute::Make("S", DataType::kString, 20)}));
  for (int64_t i = 0; i < 40; ++i) {
    Tuple t;
    if (i == 17) {
      t.Append(Value());  // One NULL exception in the packed key column.
    } else {
      t.Append(Value(i % 10));  // Duplicates across rows.
    }
    t.Append(Value("s" + std::to_string(i % 4)));
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

TEST(Relation, EraseBatchMatchesSequentialErase) {
  // Victims: duplicates (two equal victims must delete two rows), values
  // with many matching rows (only the first in scan order goes), misses,
  // and the NULL-carrying exception row.
  std::vector<Tuple> victims;
  victims.push_back(Tuple{Value(static_cast<int64_t>(3)), Value("s3")});
  victims.push_back(Tuple{Value(static_cast<int64_t>(3)), Value("s3")});
  victims.push_back(Tuple{Value(static_cast<int64_t>(7)), Value("s3")});
  victims.push_back(Tuple{Value(static_cast<int64_t>(99)), Value("s0")});
  victims.push_back(Tuple{Value(), Value("s1")});

  Relation batched = MixedRelation();
  Relation sequential = MixedRelation();
  int64_t removed_seq = 0;
  for (const Tuple& v : victims) removed_seq += sequential.Erase(v);
  const int64_t removed_batch = batched.EraseBatch(victims);

  EXPECT_EQ(removed_batch, removed_seq);
  EXPECT_GT(removed_batch, 0);
  // Order-sensitive comparison: the batch must keep surviving rows in the
  // exact order sequential erasure leaves them.
  const std::vector<Tuple> a = batched.CopyTuples();
  const std::vector<Tuple> b = sequential.CopyTuples();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "row " << i;
  }
  // The packed key column survives the compaction packed.
  EXPECT_EQ(batched.Segment(0).encoding(), Encoding::kInt64);
  EXPECT_EQ(batched.Segment(1).encoding(), Encoding::kString);
}

TEST(Relation, EraseBatchNoMatchIsNoOp) {
  Relation rel = MixedRelation();
  const uint64_t before = rel.version();
  std::vector<Tuple> victims;
  victims.push_back(Tuple{Value(static_cast<int64_t>(123)), Value("nope")});
  EXPECT_EQ(rel.EraseBatch(victims), 0);
  EXPECT_EQ(rel.version(), before);  // No mutation stamp for a no-op.
  EXPECT_EQ(rel.EraseBatch({}), 0);
  EXPECT_EQ(rel.version(), before);

  // A matching batch bumps the version exactly once.
  std::vector<Tuple> hit;
  hit.push_back(Tuple{Value(static_cast<int64_t>(0)), Value("s0")});
  hit.push_back(Tuple{Value(static_cast<int64_t>(1)), Value("s1")});
  EXPECT_EQ(rel.EraseBatch(hit), 2);
  EXPECT_EQ(rel.version(), before + 1);
}

// ---------------------------------------------------------------------------
// Prepared plans over promoted relations.

ViewDefinition Parse(const std::string& text) {
  auto result = ParseViewDefinition(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

void ExpectPreparedMatchesReference(const ViewDefinition& view,
                                    const RelationProvider& provider) {
  ExecOptions opts;
  const auto reference = ExecuteViewReference(view, provider, opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const auto plan = PrepareView(view, provider, opts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto result = ExecutePrepared(**plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto sorted = [](const Relation& r) {
    std::vector<Tuple> ts = r.CopyTuples();
    std::sort(ts.begin(), ts.end());
    return ts;
  };
  EXPECT_EQ(sorted(*result), sorted(*reference))
      << "prepared:\n"
      << result->ToString() << "reference:\n"
      << reference->ToString();
}

TEST(PreparedView, MatchesReferenceOverPromotedAndExceptionColumns) {
  MapProvider provider;
  {
    // R: packed int key with one NULL and one double exception, packed
    // string payload with a cross-pool exception.
    Relation r("R", Schema({Attribute::Make("K", DataType::kInt64, 10),
                            Attribute::Make("S", DataType::kString, 20)}));
    StringPool& other = OtherPool();  // Outlives the provider's copy of r.
    for (int64_t i = 0; i < 30; ++i) {
      Tuple t;
      if (i == 5) {
        t.Append(Value());
      } else if (i == 9) {
        t.Append(Value(static_cast<double>(i % 6)));
      } else {
        t.Append(Value(i % 6));
      }
      t.Append(i == 12 ? Value("t1", other)
                       : Value("t" + std::to_string(i % 3)));
      r.InsertUnchecked(std::move(t));
    }
    EXPECT_EQ(r.Segment(0).encoding(), Encoding::kInt64);
    EXPECT_TRUE(r.Segment(0).has_exceptions());
    ASSERT_TRUE(provider.Add(r).ok());
  }
  {
    // S: fully packed int columns (the promoted steady state).
    Relation s("S", Schema({Attribute::Make("K", DataType::kInt64, 10),
                            Attribute::Make("Y", DataType::kInt64, 10)}));
    for (int64_t i = 0; i < 20; ++i) {
      s.InsertUnchecked(Tuple{Value(i % 6), Value(i * 10)});
    }
    EXPECT_TRUE(s.ColumnAllInt64(0));
    ASSERT_TRUE(provider.Add(s).ok());
  }
  ExpectPreparedMatchesReference(
      Parse("CREATE VIEW V AS SELECT R.S, S.Y FROM R, S "
            "WHERE (R.K = S.K) AND (S.Y >= 40)"),
      provider);
  ExpectPreparedMatchesReference(
      Parse("CREATE VIEW V AS SELECT R.K, R.S FROM R WHERE R.K >= 2"),
      provider);
  ExpectPreparedMatchesReference(
      Parse("CREATE VIEW V AS SELECT R.K, S.Y FROM R, S WHERE R.K < S.K"),
      provider);
}

TEST(PlanCache, RevalidatesAcrossPromoteMutateDemote) {
  // The promotion state feeds the kernels a prepared plan snapshots; a
  // mutation that degrades (exception) or demotes (tagged) the column must
  // force a replan, and every stage's results must match the reference.
  MapProvider provider;
  Relation r("R", Schema({Attribute::Make("A", DataType::kInt64, 10),
                          Attribute::Make("B", DataType::kInt64, 10)}));
  for (int64_t i = 0; i < 24; ++i) {
    r.InsertUnchecked(Tuple{Value(i % 8), Value(i)});
  }
  ASSERT_TRUE(provider.Add(r).ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT R.B FROM R WHERE R.A >= 4");

  PlanCache cache;
  auto expect_matches_reference = [&]() {
    const auto got = cache.Execute(view, provider);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const auto want = ExecuteViewReference(view, provider, ExecOptions());
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(SetEquals(*got, *want))
        << "cached:\n" << got->ToString() << "reference:\n" << want->ToString();
  };

  // Stage 1: promoted (packed) column.
  auto resolved = provider.Resolve("", "R");
  ASSERT_TRUE(resolved.ok());
  Relation* live = const_cast<Relation*>(resolved.value());
  ASSERT_EQ(live->Segment(0).encoding(), Encoding::kInt64);
  expect_matches_reference();
  EXPECT_EQ(cache.stats().misses, 1);

  // Stage 2: a double lands in the packed column (exception sidecar); the
  // cached plan is stale and must replan, and the 4.5 row passes A >= 4.
  live->InsertUnchecked(Tuple{Value(4.5), Value(static_cast<int64_t>(1000))});
  ASSERT_EQ(live->Segment(0).encoding(), Encoding::kInt64);
  ASSERT_TRUE(live->Segment(0).has_exceptions());
  expect_matches_reference();
  EXPECT_EQ(cache.stats().replans, 1);
  {
    const auto got = cache.Execute(view, provider);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(
        got->ContainsTuple(Tuple{Value(static_cast<int64_t>(1000))}));
  }

  // Stage 3: overflow the sidecar until the column demotes to tagged; the
  // next execution replans again and still matches the reference.
  int64_t extra = 0;
  while (live->Segment(0).encoding() == Encoding::kInt64) {
    live->InsertUnchecked(
        Tuple{Value(5.5), Value(static_cast<int64_t>(2000 + extra))});
    ASSERT_LT(++extra, 100) << "demotion never happened";
  }
  EXPECT_EQ(live->Segment(0).encoding(), Encoding::kTagged);
  expect_matches_reference();
  EXPECT_GE(cache.stats().replans, 2);
}

}  // namespace
}  // namespace eve
