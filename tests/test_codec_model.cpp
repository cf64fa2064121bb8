// Codec model tests: the Table II constants and the Table III
// ratio-vs-size interpolation. The Eq. 1 and Eq. 3 terms the scheduler
// builds on them are tested with evaluate_flow in test_fvdf.
#include <gtest/gtest.h>

#include "codec/codec_model.hpp"

namespace swallow::codec {
namespace {

using common::kGB;
using common::kKB;
using common::kMB;

TEST(Table2, CarriesPaperRows) {
  const auto& codecs = table2_codecs();
  ASSERT_EQ(codecs.size(), 5u);
  EXPECT_EQ(codecs[0].name, "LZ4");
  EXPECT_DOUBLE_EQ(codecs[0].ratio, 0.6215);
  EXPECT_DOUBLE_EQ(codecs[0].compress_speed, common::mb_per_s(785));
  EXPECT_EQ(codecs[4].name, "Zstandard");
  EXPECT_DOUBLE_EQ(codecs[4].ratio, 0.3477);
}

TEST(Table2, DefaultIsLz4) { EXPECT_EQ(default_codec_model().name, "LZ4"); }

TEST(Table2, LookupIsCaseInsensitive) {
  EXPECT_EQ(codec_model_by_name("snappy").name, "Snappy");
  EXPECT_EQ(codec_model_by_name("ZSTANDARD").name, "Zstandard");
  EXPECT_THROW(codec_model_by_name("gzip"), std::out_of_range);
}

TEST(Table3, EndpointsMatchPaper) {
  EXPECT_DOUBLE_EQ(table3_ratio(10 * kKB), 0.6646);
  EXPECT_DOUBLE_EQ(table3_ratio(10 * kGB), 0.2507);
  // Clamped outside the measured range.
  EXPECT_DOUBLE_EQ(table3_ratio(1 * kKB), 0.6646);
  EXPECT_DOUBLE_EQ(table3_ratio(100 * kGB), 0.2507);
}

TEST(Table3, InterpolationHitsMeasuredPoints) {
  for (const auto& [size, ratio] : table3_points())
    EXPECT_NEAR(table3_ratio(size), ratio, 1e-12) << size;
}

TEST(Table3, RatioDecreasesMonotonicallyWithSize) {
  double prev = 1.0;
  for (double size = 10 * kKB; size <= 10 * kGB; size *= 1.5) {
    const double r = table3_ratio(size);
    EXPECT_LE(r, prev + 1e-12) << size;
    prev = r;
  }
}

TEST(Table3, LargeFlowsApproachAsymptote) {
  EXPECT_NEAR(table3_ratio(1 * kGB), table3_ratio(10 * kGB), 0.001);
}

}  // namespace
}  // namespace swallow::codec
