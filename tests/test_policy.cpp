#include <gtest/gtest.h>

#include "policy/deletion_policy.hpp"
#include "policy/score.hpp"
#include "solver/options.hpp"

namespace ns::policy {
namespace {

// --- field packing (Fig. 5) -----------------------------------------------

TEST(ScorePackingTest, DefaultGlueDominatesSize) {
  // Lower glue must outrank any size difference.
  const ClauseFeatures low_glue{.glue = 2, .size = 1000, .frequency = 0};
  const ClauseFeatures high_glue{.glue = 3, .size = 2, .frequency = 0};
  EXPECT_GT(pack_default_score(low_glue), pack_default_score(high_glue));
}

TEST(ScorePackingTest, DefaultSizeBreaksGlueTies) {
  const ClauseFeatures small{.glue = 5, .size = 3, .frequency = 0};
  const ClauseFeatures large{.glue = 5, .size = 9, .frequency = 0};
  EXPECT_GT(pack_default_score(small), pack_default_score(large));
}

TEST(ScorePackingTest, DefaultIgnoresFrequency) {
  const ClauseFeatures a{.glue = 4, .size = 6, .frequency = 0};
  const ClauseFeatures b{.glue = 4, .size = 6, .frequency = 17};
  EXPECT_EQ(pack_default_score(a), pack_default_score(b));
}

TEST(ScorePackingTest, FrequencyDominatesInNewPolicy) {
  // A clause rich in hot variables beats a small low-glue clause.
  const ClauseFeatures hot{.glue = 20, .size = 30, .frequency = 3};
  const ClauseFeatures cold{.glue = 2, .size = 2, .frequency = 0};
  EXPECT_GT(pack_frequency_score(hot), pack_frequency_score(cold));
}

TEST(ScorePackingTest, FrequencyTiesFallBackToSizeThenGlue) {
  const ClauseFeatures small{.glue = 9, .size = 4, .frequency = 2};
  const ClauseFeatures large{.glue = 9, .size = 8, .frequency = 2};
  EXPECT_GT(pack_frequency_score(small), pack_frequency_score(large));

  const ClauseFeatures low_glue{.glue = 3, .size = 5, .frequency = 2};
  const ClauseFeatures high_glue{.glue = 7, .size = 5, .frequency = 2};
  EXPECT_GT(pack_frequency_score(low_glue), pack_frequency_score(high_glue));
}

TEST(ScorePackingTest, FieldsClampWithoutOverflowingNeighbours) {
  // Saturating one field must not bleed into the next.
  const ClauseFeatures huge_size{.glue = 1, .size = 0xFFFFFFFF, .frequency = 0};
  const ClauseFeatures ok_size{.glue = 2, .size = 1, .frequency = 0};
  EXPECT_GT(pack_default_score(huge_size), pack_default_score(ok_size));

  const ClauseFeatures huge_freq{
      .glue = 1, .size = 1, .frequency = 0xFFFFFFFF};
  const ClauseFeatures small_freq{.glue = 1, .size = 1, .frequency = 1};
  EXPECT_GT(pack_frequency_score(huge_freq),
            pack_frequency_score(small_freq));
}

TEST(ScorePackingTest, NegateFieldMapsZeroToMax) {
  EXPECT_EQ(detail::negate_field(0, 8), 255u);
  EXPECT_EQ(detail::negate_field(255, 8), 0u);
  EXPECT_EQ(detail::negate_field(300, 8), 0u);  // clamped then negated
}

// Property sweep: packed comparison must agree with lexicographic
// comparison of (glue asc, size asc) for the default policy.
struct FeaturePair {
  ClauseFeatures a;
  ClauseFeatures b;
};

class DefaultLexOrderTest : public ::testing::TestWithParam<FeaturePair> {};

TEST_P(DefaultLexOrderTest, MatchesLexicographicRanking) {
  const auto& [a, b] = GetParam();
  const bool a_better =
      a.glue != b.glue ? a.glue < b.glue : a.size < b.size;
  const bool a_equal = a.glue == b.glue && a.size == b.size;
  if (a_equal) {
    EXPECT_EQ(pack_default_score(a), pack_default_score(b));
  } else if (a_better) {
    EXPECT_GT(pack_default_score(a), pack_default_score(b));
  } else {
    EXPECT_LT(pack_default_score(a), pack_default_score(b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DefaultLexOrderTest,
    ::testing::Values(
        FeaturePair{{2, 10, 0}, {2, 10, 0}}, FeaturePair{{2, 10, 0}, {3, 1, 0}},
        FeaturePair{{9, 2, 0}, {4, 50, 0}}, FeaturePair{{4, 7, 0}, {4, 8, 0}},
        FeaturePair{{1, 1, 0}, {1, 2, 0}}, FeaturePair{{30, 60, 0}, {30, 59, 0}},
        FeaturePair{{0, 0, 0}, {0, 1, 0}}, FeaturePair{{7, 3, 0}, {6, 3, 0}}));

// --- policy selection ------------------------------------------------------

TEST(DeletionPolicyTest, AlphaDefaultsToFourFifths) {
  EXPECT_DOUBLE_EQ(solver::SolverOptions{}.frequency_alpha, 0.8);
}

TEST(DeletionPolicyTest, KindFromNameRoundTrips) {
  EXPECT_EQ(policy_kind_from_name("default"), PolicyKind::kDefault);
  EXPECT_EQ(policy_kind_from_name("frequency"), PolicyKind::kFrequency);
  EXPECT_EQ(policy_kind_from_name("unknown"), std::nullopt);
}

TEST(DeletionPolicyTest, RetentionScoreDelegatesToPacking) {
  const ClauseFeatures f{.glue = 5, .size = 8, .frequency = 2};
  EXPECT_EQ(retention_score(PolicyKind::kDefault, f), pack_default_score(f));
  EXPECT_EQ(retention_score(PolicyKind::kFrequency, f),
            pack_frequency_score(f));
}

}  // namespace
}  // namespace ns::policy
