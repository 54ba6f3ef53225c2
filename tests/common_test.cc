// Unit tests for the common substrate: Status, CRC32, clock, RNG/zipfian,
// histogram, thread pool.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace couchkv {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing doc");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing doc");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  std::vector<Status> all = {
      Status::NotFound(),       Status::KeyExists(),
      Status::Locked(),         Status::NotMyVBucket(),
      Status::TempFail(),       Status::Timeout(),
      Status::InvalidArgument("x"), Status::ParseError("x"),
      Status::PlanError("x"),   Status::IOError("x"),
      Status::Corruption("x"),  Status::Unsupported("x"),
      Status::Aborted(),        Status::Internal("x")};
  std::set<StatusCode> codes;
  for (const auto& s : all) codes.insert(s.code());
  EXPECT_EQ(codes.size(), all.size());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Timeout();
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsTimeout());
}

TEST(Crc32Test, KnownVectors) {
  // CRC32C("123456789") = 0xE3069283 (well-known check value).
  EXPECT_EQ(Crc32("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string data = "hello, couchbase world";
  uint32_t whole = Crc32(data);
  uint32_t part = Crc32(data.substr(0, 7));
  part = Crc32(data.substr(7), part);
  EXPECT_EQ(whole, part);
}

// Bit-at-a-time CRC32C straight from the polynomial: the reference the
// table-driven implementation must match exactly.
uint32_t BitwiseCrc32c(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

// Every length 0..1100 at every start offset mod 8 (so each tail length and
// alignment of the 8-byte steps is covered), with zero and non-zero seeds.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 1100;
  const std::vector<uint8_t> buf = RandomBytes(kMaxLen + 8, 20);
  for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x9E3779B9u}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint8_t* p = buf.data() + offset;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(Crc32(p, len, seed), BitwiseCrc32c(p, len, seed))
            << "len=" << len << " offset=" << offset << " seed=" << seed;
      }
    }
  }
}

// The incremental form: splitting the input anywhere and chaining the first
// part's CRC in as the seed gives the one-shot CRC.
TEST(Crc32Test, IncrementalMatchesAtEverySplit) {
  constexpr size_t kLen = 1100;
  const std::vector<uint8_t> buf = RandomBytes(kLen, 21);
  for (uint32_t seed : {0u, 0x12345678u}) {
    const uint32_t whole = BitwiseCrc32c(buf.data(), kLen, seed);
    for (size_t split = 0; split <= kLen; ++split) {
      const uint32_t head = Crc32(buf.data(), split, seed);
      ASSERT_EQ(Crc32(buf.data() + split, kLen - split, head), whole)
          << "split=" << split << " seed=" << seed;
    }
  }
}

TEST(Crc32Test, DifferentKeysSpreadOverVBuckets) {
  std::set<uint32_t> vbuckets;
  for (int i = 0; i < 10000; ++i) {
    vbuckets.insert(Crc32("user::" + std::to_string(i)) % 1024);
  }
  // CRC32 should hit nearly all 1024 partitions with 10k keys.
  EXPECT_GT(vbuckets.size(), 1000u);
}

TEST(ClockTest, RealClockAdvances) {
  Clock* c = Clock::Real();
  uint64_t a = c->NowNanos();
  uint64_t b = c->NowNanos();
  EXPECT_GE(b, a);
}

TEST(ClockTest, ManualClockControls) {
  ManualClock c(1000);
  EXPECT_EQ(c.NowNanos(), 1000u);
  c.AdvanceSeconds(2);
  EXPECT_EQ(c.NowSeconds(), 2u);
  c.AdvanceMillis(500);
  EXPECT_EQ(c.NowMillis(), 2500u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfianTest, ValuesInRange) {
  Rng rng(3);
  ZipfianGenerator zipf(1000);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 1000u);
  }
}

TEST(ZipfianTest, SkewedTowardLowRanks) {
  Rng rng(4);
  ZipfianGenerator zipf(10000, 0.99);
  int low = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next(rng) < 100) ++low;  // hottest 1% of items
  }
  // With theta=0.99, the top 1% of items should receive far more than 1%
  // of accesses (typically >30%).
  EXPECT_GT(low, kDraws / 10);
}

TEST(ScrambledZipfianTest, ScattersHotKeys) {
  Rng rng(5);
  ScrambledZipfianGenerator gen(10000);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen.Next(rng));
  // Hot items are hashed across the space, so we still see many distinct
  // values but they are not clustered at 0.
  EXPECT_GT(seen.size(), 50u);
  EXPECT_GT(*seen.rbegin(), 5000u);
}

TEST(HistogramTest, CountSumMean) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  h.Record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600u);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (uint64_t i = 1; i <= 10000; ++i) h.Record(i * 1000);
  uint64_t p50 = h.Percentile(0.50);
  uint64_t p95 = h.Percentile(0.95);
  uint64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // ~4% bucket resolution: p50 should be near 5ms.
  EXPECT_NEAR(static_cast<double>(p50), 5e6, 5e5);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 30u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(1);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(HistogramTest, SnapshotIsConsistentCopy) {
  Histogram h;
  h.Record(100);
  h.Record(1000);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 1100u);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  // The snapshot is decoupled: later records don't change it.
  h.Record(5000);
  EXPECT_EQ(snap.count, 2u);
}

TEST(HistogramTest, SnapshotSubtractGivesInterval) {
  Histogram h;
  h.Record(100);
  HistogramSnapshot before = h.Snapshot();
  h.Record(100);
  h.Record(200);
  HistogramSnapshot after = h.Snapshot();
  after.Subtract(before);
  EXPECT_EQ(after.count, 2u);
  EXPECT_EQ(after.sum, 300u);
}

TEST(HistogramTest, SubtractClampsAtZero) {
  Histogram a, b;
  a.Record(100);
  b.Record(100);
  b.Record(100);
  HistogramSnapshot snap = a.Snapshot();
  snap.Subtract(b.Snapshot());  // "earlier" is larger: clamp, don't wrap
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0u);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty
  h.Record(1000);
  // A single sample: every quantile lands in its bucket, including the
  // out-of-range ones (clamped to [0, 1]).
  uint64_t p = h.Percentile(0.5);
  EXPECT_GE(p, Histogram::BucketLow(Histogram::BucketFor(1000)));
  EXPECT_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
  // p100 of a single-bucket histogram must not interpolate past the bucket.
  EXPECT_LE(h.Percentile(1.0),
            Histogram::BucketLow(Histogram::BucketFor(1000) + 1));
}

TEST(HistogramTest, BucketGeometryMonotone) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  int prev = 0;
  for (uint64_t v = 1; v < (1ull << 40); v *= 7) {
    int idx = Histogram::BucketFor(v);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, Histogram::kNumBuckets);
    EXPECT_LE(Histogram::BucketLow(idx), v);
    prev = idx;
  }
}

TEST(HistogramTest, SnapshotMergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(20);
  HistogramSnapshot sa = a.Snapshot();
  sa.Merge(b.Snapshot());
  EXPECT_EQ(sa.count, 2u);
  EXPECT_EQ(sa.sum, 30u);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    count.fetch_add(1);
    pool.Submit([&] { count.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

}  // namespace
}  // namespace couchkv
