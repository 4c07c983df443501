#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/string_util.h"

namespace aida::util {
namespace {

// ---- Status ------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing entity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing entity");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing entity");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::AlreadyExists("x").code(),
      Status::FailedPrecondition("x").code(), Status::OutOfRange("x").code(),
      Status::Unimplemented("x").code(),    Status::Internal("x").code(),
      Status::IoError("x").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::Internal("boom"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ---- String utilities ----------------------------------------------------

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("Hello World"), "hello world");
  EXPECT_EQ(ToUpper("Hello World"), "HELLO WORLD");
}

TEST(StringUtilTest, IsAllUpper) {
  EXPECT_TRUE(IsAllUpper("NASA"));
  EXPECT_TRUE(IsAllUpper("U.S."));
  EXPECT_FALSE(IsAllUpper("NaSA"));
  EXPECT_FALSE(IsAllUpper("123"));  // no alphabetic characters
}

TEST(StringUtilTest, SplitOmitsEmptyPieces) {
  EXPECT_EQ(Split("a b  c", ' '),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ' '), (std::vector<std::string>{}));
  EXPECT_EQ(Split("  ", ' '), (std::vector<std::string>{}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> pieces = {"one", "two", "three"};
  EXPECT_EQ(Split(Join(pieces, " "), ' '), pieces);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s_%d", "doc", 7), "doc_7");
  EXPECT_EQ(StrFormat("%.2f", 0.5), "0.50");
}

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0;
  double sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.1);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, GeometricRespectsCap) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(rng.Geometric(0.01, 5), 5);
  }
}

// ---- ZipfSampler -------------------------------------------------------------

TEST(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0;
  for (size_t i = 0; i < 100; ++i) total += zipf.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, HeadIsHeavier) {
  ZipfSampler zipf(100, 1.0);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(50));
}

TEST(ZipfSamplerTest, SampleInRangeAndSkewed) {
  ZipfSampler zipf(50, 1.2);
  Rng rng(31);
  int head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    size_t s = zipf.Sample(rng);
    EXPECT_LT(s, 50u);
    if (s == 0) ++head;
  }
  // Rank 0 should receive roughly its pmf share of samples.
  EXPECT_NEAR(static_cast<double>(head) / n, zipf.Pmf(0), 0.03);
}

// ---- Files ---------------------------------------------------------------

TEST(SerializeTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/aida_serialize_test.bin";
  // Embedded NUL and control bytes must survive the round trip.
  std::string payload("payload\x00\x01 bytes", 14);
  ASSERT_TRUE(WriteFile(path, payload).ok());
  StatusOr<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(SerializeTest, MissingFileFails) {
  StatusOr<std::string> read = ReadFile("/nonexistent/path/file.bin");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, WriteFileReplacesWithoutLeavingSiblings) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "aida_write_file";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directory(dir));
  const std::string path = (dir / "target.bin").string();
  ASSERT_TRUE(WriteFile(path, "first, and longer").ok());
  ASSERT_TRUE(WriteFile(path, "second").ok());
  EXPECT_EQ(ReadFile(path).value(), "second");
  // The replacement gets the mode a plain new file gets.
  std::ofstream((dir / "reference").string()) << "x";
  EXPECT_EQ(fs::status(path).permissions(),
            fs::status(dir / "reference").permissions());

  // A replace that fails (the target is a directory) removes its
  // sibling file too.
  ASSERT_TRUE(fs::create_directory(dir / "blocked"));
  EXPECT_FALSE(WriteFile((dir / "blocked").string(), "never lands").ok());

  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"blocked", "reference", "target.bin"}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace aida::util
