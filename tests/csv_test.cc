#include "dphist/data/csv.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "dphist/algorithms/registry.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/dphist_csv_" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(CsvTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.csv");
  const Histogram original({1.0, 2.5, 0.0, 42.0});
  ASSERT_TRUE(SaveHistogramCsv(original, path).ok());
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().counts(), original.counts());
  std::remove(path.c_str());
}

TEST_F(CsvTest, BareCountsFormat) {
  const std::string path = TempPath("bare.csv");
  WriteFile(path, "1\n2\n3.5\n");
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok());
  const std::vector<double> expected = {1.0, 2.0, 3.5};
  EXPECT_EQ(loaded.value().counts(), expected);
  std::remove(path.c_str());
}

TEST_F(CsvTest, SkipsCommentsAndBlankLines) {
  const std::string path = TempPath("comments.csv");
  WriteFile(path, "# header\n\n0,5\n1,6\n\n# trailing\n");
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok());
  const std::vector<double> expected = {5.0, 6.0};
  EXPECT_EQ(loaded.value().counts(), expected);
  std::remove(path.c_str());
}

TEST_F(CsvTest, HandlesWhitespace) {
  const std::string path = TempPath("ws.csv");
  WriteFile(path, "  0 , 5 \r\n 1 , 6.5 \n");
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok());
  const std::vector<double> expected = {5.0, 6.5};
  EXPECT_EQ(loaded.value().counts(), expected);
  std::remove(path.c_str());
}

TEST_F(CsvTest, MissingFileIsNotFound) {
  auto loaded = LoadHistogramCsv("/nonexistent/path/file.csv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CsvTest, GarbageIsParseError) {
  const std::string path = TempPath("garbage.csv");
  WriteFile(path, "0,hello\n");
  auto loaded = LoadHistogramCsv(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST_F(CsvTest, OutOfOrderIndicesRejected) {
  const std::string path = TempPath("order.csv");
  WriteFile(path, "0,5\n2,6\n");
  auto loaded = LoadHistogramCsv(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST_F(CsvTest, EmptyFileRejected) {
  const std::string path = TempPath("empty.csv");
  WriteFile(path, "# only a comment\n");
  auto loaded = LoadHistogramCsv(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, NegativeAndFractionalCountsRoundTrip) {
  // Noisy releases carry negative and fractional counts; CSV I/O must not
  // mangle them.
  const std::string path = TempPath("negative.csv");
  const Histogram original({-3.25, 0.0, 1e6, -0.0625});
  ASSERT_TRUE(SaveHistogramCsv(original, path).ok());
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().counts(), original.counts());
  std::remove(path.c_str());
}

TEST_F(CsvTest, IndexOverflowingUint64IsInvalidArgument) {
  // Regression: indices used to be parsed through double, which silently
  // rounds above 2^53 and wraps on overflow. A numerically valid index too
  // large for uint64 is now a typed kInvalidArgument, distinct from the
  // kParseError used for corrupt text.
  const std::string path = TempPath("overflow.csv");
  WriteFile(path, "18446744073709551616,1\n");  // 2^64: one past uint64 max
  auto loaded = LoadHistogramCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("overflows uint64"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CsvTest, MalformedIndexIsParseErrorNotOverflow) {
  const std::string path = TempPath("badindex.csv");
  for (const char* bad : {"abc,1\n", "-1,1\n", "1.5,1\n", "0x7,1\n"}) {
    WriteFile(path, bad);
    auto loaded = LoadHistogramCsv(path);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << bad;
  }
  std::remove(path.c_str());
}

TEST_F(CsvTest, IndicesAboveTheDoubleMantissaParseExactly) {
  // 2^53 + 1 is not representable as a double; an exact uint64 parse must
  // still distinguish it from its neighbors. The index is out of order for
  // a one-line file, so the loader reports the dense-order error rather
  // than an overflow or rounding artifact.
  const std::string path = TempPath("mantissa.csv");
  WriteFile(path, "9007199254740993,1\n");  // 2^53 + 1
  auto loaded = LoadHistogramCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("dense and in order"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CsvTest, TrailingCharactersRejected) {
  const std::string path = TempPath("trailing.csv");
  WriteFile(path, "12abc\n");
  auto loaded = LoadHistogramCsv(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

// std::stod accepts "nan" and "inf", so the loader returns such counts as
// parsed; publishing them must then fail with a typed error rather than
// release NaN.
TEST_F(CsvTest, NanCountLoadsButDoesNotPublish) {
  const std::string path = TempPath("nan_publish.csv");
  WriteFile(path, "1\n2\nnan\n4\n");
  auto loaded = LoadHistogramCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 4u);
  for (const char* name : {"noise_first", "structure_first", "dwork"}) {
    auto publisher = PublisherRegistry::Make(name);
    ASSERT_TRUE(publisher.ok());
    Rng rng(1);
    auto out = publisher.value()->Publish(loaded.value(), 1.0, rng);
    ASSERT_FALSE(out.ok()) << name;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

}  // namespace
}  // namespace dphist
