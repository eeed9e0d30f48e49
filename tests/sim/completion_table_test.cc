#include "src/sim/completion_table.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/util/rng.h"

namespace jockey {
namespace {

// A moderately populated table with deliberate gaps: empty buckets inside columns
// (fallback paths) and one completely empty column.
CompletionTable MakeIrregularTable() {
  CompletionTable table({5, 10, 20, 40}, 12);
  Rng rng(42);
  for (int ai = 0; ai < 3; ++ai) {  // column 3 (allocation 40) stays empty
    for (int b = 0; b < 12; ++b) {
      if (b % (ai + 2) == 0) {
        continue;  // punch holes to exercise the fallback
      }
      int n = 1 + static_cast<int>(rng.UniformInt(0, 6));
      for (int k = 0; k < n; ++k) {
        double p = (b + rng.Uniform()) / 12.0;
        table.AddSample(p, ai, rng.Uniform(0.0, 5000.0) * (1.0 - p + 0.1));
      }
    }
  }
  return table;
}

// Query points covering interior cells, fallback buckets, grid-edge clamping, and
// out-of-range progress.
struct Query {
  double p;
  double a;
  double q;
};

std::vector<Query> ProbeQueries() {
  std::vector<Query> queries;
  for (double p : {-0.3, 0.0, 0.08, 0.25, 0.5, 0.77, 0.99, 1.0, 1.4}) {
    for (double a : {1.0, 5.0, 7.5, 10.0, 33.0, 40.0, 90.0}) {
      for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
        queries.push_back({p, a, q});
      }
    }
  }
  return queries;
}

TEST(CompletionTableTest, PredictReturnsStoredQuantiles) {
  CompletionTable table({10, 20}, 10);
  for (double x : {100.0, 110.0, 120.0}) {
    table.AddSample(0.05, 0, x);
  }
  EXPECT_DOUBLE_EQ(table.Predict(0.05, 10.0, 0.5), 110.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.05, 10.0, 1.0), 120.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.05, 10.0, 0.0), 100.0);
}

TEST(CompletionTableTest, InterpolatesBetweenAllocations) {
  CompletionTable table({10, 20}, 10);
  table.AddSample(0.5, 0, 200.0);
  table.AddSample(0.5, 1, 100.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.5, 15.0, 1.0), 150.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.5, 12.5, 1.0), 175.0);
}

TEST(CompletionTableTest, ClampsAllocationToGrid) {
  CompletionTable table({10, 20}, 10);
  table.AddSample(0.5, 0, 200.0);
  table.AddSample(0.5, 1, 100.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.5, 5.0, 1.0), 200.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.5, 50.0, 1.0), 100.0);
}

TEST(CompletionTableTest, EmptyBucketFallsBackToNearestLowerBucket) {
  CompletionTable table({10}, 10);
  table.AddSample(0.25, 0, 300.0);  // bucket 2
  // Bucket 5 has no data; the lower bucket's (larger) remaining time is the safe
  // fallback.
  EXPECT_DOUBLE_EQ(table.Predict(0.55, 10.0, 1.0), 300.0);
}

TEST(CompletionTableTest, EmptyBucketPrefersLowerOverHigher) {
  CompletionTable table({10}, 10);
  table.AddSample(0.15, 0, 300.0);  // bucket 1
  table.AddSample(0.95, 0, 10.0);   // bucket 9
  // Bucket 5 is empty; both neighbors exist at distance 4; lower (pessimistic) wins.
  EXPECT_DOUBLE_EQ(table.Predict(0.55, 10.0, 1.0), 300.0);
}

TEST(CompletionTableTest, ProgressClampedToUnitInterval) {
  CompletionTable table({10}, 10);
  table.AddSample(0.0, 0, 500.0);
  table.AddSample(1.0, 0, 0.0);
  EXPECT_DOUBLE_EQ(table.Predict(-0.5, 10.0, 1.0), 500.0);
  EXPECT_DOUBLE_EQ(table.Predict(1.5, 10.0, 1.0), 0.0);
}

TEST(CompletionTableTest, TotalSamplesCounts) {
  CompletionTable table({10, 20}, 10);
  EXPECT_EQ(table.TotalSamples(), 0u);
  table.AddSample(0.1, 0, 1.0);
  table.AddSample(0.2, 1, 2.0);
  table.AddSample(0.2, 1, 3.0);
  EXPECT_EQ(table.TotalSamples(), 3u);
}

TEST(CompletionTableTest, CompletelyEmptyColumnPredictsZero) {
  CompletionTable table({10, 20}, 10);
  table.AddSample(0.5, 0, 100.0);
  // Column for allocation 20 has no samples anywhere.
  EXPECT_DOUBLE_EQ(table.Predict(0.5, 20.0, 1.0), 0.0);
}

TEST(CompletionTableTest, SummarySerializationHasHeaderAndRows) {
  CompletionTable table({10, 20}, 5);
  table.AddSample(0.1, 0, 100.0);
  std::ostringstream os;
  table.SaveSummary(os, {0.5, 1.0});
  std::string out = os.str();
  EXPECT_NE(out.find("a10_q0.5"), std::string::npos);
  EXPECT_NE(out.find("a20_q1"), std::string::npos);
  // 1 header + 5 bucket rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(CompletionTableFreezeTest, PredictIdenticalBeforeAndAfterFreeze) {
  CompletionTable table = MakeIrregularTable();
  std::vector<double> before;
  for (const Query& query : ProbeQueries()) {
    before.push_back(table.Predict(query.p, query.a, query.q));
  }
  table.Freeze();
  EXPECT_TRUE(table.frozen());
  size_t i = 0;
  for (const Query& query : ProbeQueries()) {
    EXPECT_DOUBLE_EQ(table.Predict(query.p, query.a, query.q), before[i++])
        << "p=" << query.p << " a=" << query.a << " q=" << query.q;
  }
}

TEST(CompletionTableFreezeTest, FreezeIsIdempotentAndKeepsTotals) {
  CompletionTable table = MakeIrregularTable();
  size_t total = table.TotalSamples();
  table.Freeze();
  EXPECT_EQ(table.TotalSamples(), total);
  double probe = table.Predict(0.4, 12.0, 0.9);
  table.Freeze();
  EXPECT_EQ(table.TotalSamples(), total);
  EXPECT_DOUBLE_EQ(table.Predict(0.4, 12.0, 0.9), probe);
}

TEST(CompletionTableFreezeTest, FrozenEmptyBucketFallbackMatchesMutablePath) {
  CompletionTable table({10}, 10);
  table.AddSample(0.15, 0, 300.0);  // bucket 1
  table.AddSample(0.95, 0, 10.0);   // bucket 9
  double before_mid = table.Predict(0.55, 10.0, 1.0);  // empty bucket, lower preferred
  double before_low = table.Predict(0.02, 10.0, 1.0);  // below the lowest populated
  table.Freeze();
  EXPECT_DOUBLE_EQ(table.Predict(0.55, 10.0, 1.0), before_mid);
  EXPECT_DOUBLE_EQ(table.Predict(0.55, 10.0, 1.0), 300.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.02, 10.0, 1.0), before_low);
}

TEST(CompletionTableFreezeTest, FrozenCompletelyEmptyColumnPredictsZero) {
  CompletionTable table({10, 20}, 10);
  table.AddSample(0.5, 0, 100.0);
  table.Freeze();
  EXPECT_DOUBLE_EQ(table.Predict(0.5, 20.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(table.Predict(0.5, 15.0, 1.0), 50.0);  // interpolation into the gap
}

TEST(CompletionTableFreezeTest, SummarySerializationUnchangedByFreeze) {
  CompletionTable table = MakeIrregularTable();
  std::ostringstream before;
  table.SaveSummary(before, {0.5, 1.0});
  table.Freeze();
  std::ostringstream after;
  table.SaveSummary(after, {0.5, 1.0});
  EXPECT_EQ(before.str(), after.str());
}

TEST(CompletionTableSerializeTest, SaveLoadRoundTripPredictsIdentically) {
  CompletionTable table = MakeIrregularTable();
  table.Freeze();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  table.Save(blob);
  std::optional<CompletionTable> loaded = CompletionTable::Load(blob);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->frozen());
  EXPECT_EQ(loaded->allocations(), table.allocations());
  EXPECT_EQ(loaded->num_buckets(), table.num_buckets());
  EXPECT_EQ(loaded->TotalSamples(), table.TotalSamples());
  for (const Query& query : ProbeQueries()) {
    EXPECT_DOUBLE_EQ(loaded->Predict(query.p, query.a, query.q),
                     table.Predict(query.p, query.a, query.q))
        << "p=" << query.p << " a=" << query.a << " q=" << query.q;
  }
  // Re-serialization is byte-stable — the property the table-equality tests and the
  // persistent cache rely on.
  std::ostringstream again(std::ios::binary);
  loaded->Save(again);
  EXPECT_EQ(again.str(), blob.str());
}

TEST(CompletionTableSerializeTest, LoadRejectsGarbageAndTruncation) {
  std::istringstream garbage("definitely not a table");
  EXPECT_FALSE(CompletionTable::Load(garbage).has_value());

  CompletionTable table = MakeIrregularTable();
  table.Freeze();
  std::ostringstream blob(std::ios::binary);
  table.Save(blob);
  std::string bytes = blob.str();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2), std::ios::binary);
  EXPECT_FALSE(CompletionTable::Load(truncated).has_value());
  std::istringstream empty("", std::ios::binary);
  EXPECT_FALSE(CompletionTable::Load(empty).has_value());
}

// A header that promises more than the stream holds must be rejected before
// anything is sized from it: a 36-byte blob (1 bucket, 1 allocation) that claims
// 2^32 samples would otherwise size a 32 GiB sample buffer, and a 2^20 x 2^20
// grid 2^40 cells.
TEST(CompletionTableSerializeTest, LoadRejectsHeaderThatPromisesMoreThanTheStreamHolds) {
  auto header = [](uint32_t buckets, uint32_t allocs, uint64_t buffer_size) {
    std::string bytes = "JCKTBL01";
    auto put = [&bytes](const auto& value) {
      bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    put(buckets);
    put(allocs);
    for (int32_t a = 1; a <= 2 && static_cast<uint32_t>(a) <= allocs; ++a) {
      put(a);
    }
    put(uint64_t{0});  // total_samples
    put(buffer_size);
    return bytes;
  };
  std::string huge_buffer = header(1, 1, uint64_t{1} << 32);
  ASSERT_EQ(huge_buffer.size(), 36u);
  std::istringstream buffer_blob(huge_buffer, std::ios::binary);
  EXPECT_FALSE(CompletionTable::Load(buffer_blob).has_value());

  std::istringstream grid_blob(header(1u << 20, 1u << 20, 0), std::ios::binary);
  EXPECT_FALSE(CompletionTable::Load(grid_blob).has_value());

  // The same framing with its promised bytes present loads: one cell, one sample.
  std::string complete = header(1, 1, 1);
  const double sample = 7.0;
  complete.append(reinterpret_cast<const char*>(&sample), sizeof(sample));
  const uint64_t cell[2] = {0, 1};
  complete.append(reinterpret_cast<const char*>(cell), sizeof(cell));
  std::istringstream complete_blob(complete, std::ios::binary);
  std::optional<CompletionTable> loaded = CompletionTable::Load(complete_blob);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->Predict(0.5, 1, 0.5), 7.0);
}

}  // namespace
}  // namespace jockey
