#include "dphist/data/csv.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/registry.h"
#include "dphist/random/rng.h"
#include "dphist/sparse/sparse_csv.h"

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

// std::from_chars accepts "nan" and "inf", so the loader returns such
// counts as parsed; publishing them must then fail with a typed error
// rather than release NaN.
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

// Every value's bits, so a -0.0 for a 0.0 counts as a change.
std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Counts that text with 6 significant digits cannot carry (1/3,
// 123.456789, 1234567), and doubles at the edges: 2^53 - 1, the smallest
// subnormal, another subnormal, -0 and a count near the top of the range.
const std::vector<double> kHardCounts = {
    1.0 / 3.0,
    123.456789,
    1234567.0,
    9007199254740991.0,
    5e-324,
    1e-310,
    -0.0,
    1e300,
};

TEST_F(CsvTest, CountsRoundTripBitForBit) {
  const std::string path = TempPath("exact.csv");
  ASSERT_TRUE(SaveHistogramCsv(Histogram(kHardCounts), path).ok());
  auto loaded = LoadHistogramCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Bits(loaded.value().counts()), Bits(kHardCounts));
}

TEST_F(CsvTest, SparseCountsRoundTripBitForBit) {
  std::vector<sparse::SparseEntry> entries;
  for (std::size_t i = 0; i < kHardCounts.size(); ++i) {
    entries.push_back({(std::uint64_t{1} << 60) + 7 * i, kHardCounts[i]});
  }
  auto original =
      sparse::SparseHistogram::Create(sparse::kMaxSparseDomain, entries);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("sparse_exact.csv");
  ASSERT_TRUE(sparse::SaveSparseHistogramCsv(original.value(), path).ok());
  auto loaded = sparse::LoadSparseHistogramCsv(path, sparse::kMaxSparseDomain);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().entries().size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(loaded.value().entries()[i].key, entries[i].key);
    EXPECT_EQ(Bits({loaded.value().entries()[i].count}),
              Bits({entries[i].count}))
        << i;
  }
}

TEST_F(CsvTest, WritesSeventeenDigits) {
  const std::string path = TempPath("digits.csv");
  ASSERT_TRUE(SaveHistogramCsv(Histogram({1.0 / 3.0, -0.0, 5e-324}), path)
                  .ok());
  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(text, "0,0.33333333333333331\n1,-0\n2,4.9406564584124654e-324\n");
}

TEST_F(CsvTest, AcceptsALeadingPlusAndSubnormals) {
  const std::string path = TempPath("plus.csv");
  WriteFile(path, "+2.5\n1,+4.9406564584124654e-324\n");
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Bits(loaded.value().counts()), Bits({2.5, 5e-324}));
  for (const char* bad : {"+\n", "++1\n", "+-1\n", "+ 1\n", "1e400\n"}) {
    WriteFile(path, bad);
    auto refused = LoadHistogramCsv(path);
    ASSERT_FALSE(refused.ok()) << bad;
    EXPECT_EQ(refused.status().code(), StatusCode::kParseError) << bad;
  }
  std::remove(path.c_str());
}

// The byte-level property battery for both loaders. Each input is fed
// whole-file truncated at every byte, with every single-byte substitution
// from a set of structural bytes, and with 2000 seeded substitutions of
// arbitrary bytes. Every result must be a typed error, or a histogram
// that saves and reloads to the same bits.
class CsvBytesTest : public CsvTest {
 protected:
  void Feed(const std::string& original,
            const std::function<void(const std::string&)>& check) {
    for (std::size_t length = 0; length <= original.size(); ++length) {
      check(original.substr(0, length));
    }
    for (std::size_t pos = 0; pos < original.size(); ++pos) {
      for (const char byte : {',', ' ', '\n', '#', '-', '+', '.', 'e', '7',
                              '\0', '\x80'}) {
        std::string mutated = original;
        mutated[pos] = byte;
        check(mutated);
      }
    }
    std::mt19937_64 rng(20240611);
    for (int i = 0; i < 2000; ++i) {
      std::string mutated = original;
      mutated[rng() % mutated.size()] = static_cast<char>(rng() % 256);
      check(mutated);
    }
  }

  void CheckDense(const std::string& bytes) {
    WriteFile(in_, bytes);
    auto loaded = LoadHistogramCsv(in_);
    if (!loaded.ok()) {
      ExpectTyped(loaded.status(), bytes);
      return;
    }
    ASSERT_TRUE(SaveHistogramCsv(loaded.value(), out_).ok());
    auto reloaded = LoadHistogramCsv(out_);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(Bits(reloaded.value().counts()), Bits(loaded.value().counts()))
        << ::testing::PrintToString(bytes);
  }

  void CheckSparse(const std::string& bytes) {
    WriteFile(in_, bytes);
    auto loaded = sparse::LoadSparseHistogramCsv(in_, kSparseDomain);
    if (!loaded.ok()) {
      ExpectTyped(loaded.status(), bytes);
      return;
    }
    ASSERT_TRUE(sparse::SaveSparseHistogramCsv(loaded.value(), out_).ok());
    auto reloaded = sparse::LoadSparseHistogramCsv(out_, kSparseDomain);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    const auto& before = loaded.value().entries();
    const auto& after = reloaded.value().entries();
    ASSERT_EQ(after.size(), before.size()) << ::testing::PrintToString(bytes);
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(after[i].key, before[i].key);
      EXPECT_EQ(Bits({after[i].count}), Bits({before[i].count}))
          << ::testing::PrintToString(bytes);
    }
  }

  static void ExpectTyped(const Status& status, const std::string& bytes) {
    EXPECT_TRUE(status.code() == StatusCode::kParseError ||
                status.code() == StatusCode::kInvalidArgument)
        << status.ToString() << " for " << ::testing::PrintToString(bytes);
  }

  static constexpr std::uint64_t kSparseDomain = std::uint64_t{1} << 62;
  // One pair of files per case: ctest runs the cases at the same time.
  const std::string name_ =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string in_ = TempPath(name_ + "_in.csv");
  const std::string out_ = TempPath(name_ + "_out.csv");
};

TEST_F(CsvBytesTest, DenseLoaderTypedErrorOrExactRoundTrip) {
  Feed("# dense\n0,0.33333333333333331\n1,-123.456789\n2,1234567\n"
       "3,9007199254740991\n4,4.9406564584124654e-324\n5,+1e-310\n6,-0\n\n"
       "7,1.0000000000000001e+300\n 8 , 42 \n",
       [this](const std::string& bytes) { CheckDense(bytes); });
  std::remove(in_.c_str());
  std::remove(out_.c_str());
}

TEST_F(CsvBytesTest, SparseLoaderTypedErrorOrExactRoundTrip) {
  Feed("# sparse\n3,0.33333333333333331\n17,-2.5e-7\n4096,1234567\n"
       "9007199254740993,4.9406564584124654e-324\n\n"
       "4611686018427387902,-0\n",
       [this](const std::string& bytes) { CheckSparse(bytes); });
  std::remove(in_.c_str());
  std::remove(out_.c_str());
}

}  // namespace
}  // namespace dphist
