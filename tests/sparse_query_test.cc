// Sparse range-query answering: equivalence with the dense path on a
// materializable domain, the dense validation contract carried over to
// 64-bit domains, and correctness at keys near the 2^63 domain cap.

#include "dphist/query/sparse_query.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/status.h"
#include "dphist/hist/histogram.h"
#include "dphist/query/range_query.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {
namespace {

sparse::SparseHistogram MustCreate(std::uint64_t domain,
                                   std::vector<sparse::SparseEntry> entries) {
  auto histogram = sparse::SparseHistogram::Create(domain, std::move(entries));
  EXPECT_TRUE(histogram.ok()) << histogram.status().ToString();
  return std::move(histogram).value();
}

TEST(SparseQueryTest, MatchesDenseAnswersOnMaterializableDomain) {
  const std::size_t kDomain = 512;
  const sparse::SparseHistogram sparse_histogram = MustCreate(
      kDomain, {{0, 3.0}, {17, -1.5}, {100, 7.0}, {255, 2.0}, {511, 4.5}});
  std::vector<double> counts(kDomain, 0.0);
  for (const sparse::SparseEntry& entry : sparse_histogram.entries()) {
    counts[static_cast<std::size_t>(entry.key)] = entry.count;
  }
  const Histogram dense(std::move(counts));

  Rng rng(13579);
  auto queries = RandomRangeWorkload(kDomain, 200, rng);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  auto dense_answers = AnswerQueries(dense, queries.value());
  auto sparse_answers = AnswerQueriesSparse(sparse_histogram, queries.value());
  ASSERT_TRUE(dense_answers.ok()) << dense_answers.status().ToString();
  ASSERT_TRUE(sparse_answers.ok()) << sparse_answers.status().ToString();
  ASSERT_EQ(dense_answers.value().size(), sparse_answers.value().size());
  for (std::size_t i = 0; i < queries.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(sparse_answers.value()[i], dense_answers.value()[i])
        << "query " << i;
  }
}

TEST(SparseQueryTest, ValidationMirrorsDenseContract) {
  const sparse::SparseHistogram histogram = MustCreate(100, {{5, 1.0}});
  // Valid workload passes.
  EXPECT_TRUE(
      ValidateQueries({{0, 100}, {5, 6}, {99, 100}}, 100).ok());
  // Empty, inverted, and out-of-domain queries fail loudly — never
  // clamped, never swapped, never dropped.
  for (const RangeQuery bad : {RangeQuery{5, 5},     // empty
                               RangeQuery{7, 3},     // inverted
                               RangeQuery{0, 101}})  // past the domain
  {
    const Status status = ValidateQueries({bad}, 100);
    ASSERT_FALSE(status.ok()) << "[" << bad.begin << ", " << bad.end << ")";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    auto answers = AnswerQueriesSparse(histogram, {bad});
    ASSERT_FALSE(answers.ok());
    EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SparseQueryTest, AnswersQueriesNearTheDomainCap) {
  const std::uint64_t kDomain = sparse::kMaxSparseDomain;
  const sparse::SparseHistogram histogram = MustCreate(
      kDomain, {{0, 1.0}, {kDomain / 2, 10.0}, {kDomain - 1, 100.0}});
  const std::vector<RangeQuery> queries = {
      {0, static_cast<std::size_t>(kDomain)},            // everything
      {1, static_cast<std::size_t>(kDomain - 1)},        // interior only
      {static_cast<std::size_t>(kDomain - 1),
       static_cast<std::size_t>(kDomain)},               // last key alone
  };
  auto answers = AnswerQueriesSparse(histogram, queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_DOUBLE_EQ(answers.value()[0], 111.0);
  EXPECT_DOUBLE_EQ(answers.value()[1], 10.0);
  EXPECT_DOUBLE_EQ(answers.value()[2], 100.0);
}

TEST(SparseQueryTest, EmptyWorkloadYieldsEmptyAnswers) {
  const sparse::SparseHistogram histogram = MustCreate(10, {});
  auto answers = AnswerQueriesSparse(histogram, {});
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers.value().empty());
}

}  // namespace
}  // namespace dphist
