// Long-horizon and cross-field-size end-to-end sweeps.
#include <gtest/gtest.h>

#include "pisces/pisces.h"

namespace pisces {
namespace {

class FieldSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FieldSweepTest, FullLifecycleAtEveryFieldSize) {
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = GetParam();
  cfg.seed = GetParam();
  Cluster cluster(cfg);
  Rng rng(GetParam());
  Bytes file = rng.RandomBytes(1024);
  cluster.Upload(1, file);
  ASSERT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

INSTANTIATE_TEST_SUITE_P(FieldSizes, FieldSweepTest,
                         ::testing::Values(256, 512, 1024, 2048));

TEST(LongHorizon, ManyWindowsWithChurnAndAdversary) {
  // Five proactive periods with a live rotating adversary, a mid-life second
  // upload, a delete, and downloads sprinkled between windows.
  ClusterConfig cfg;
  cfg.params.n = 10;
  cfg.params.t = 2;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = 77;
  Cluster cluster(cfg);
  Adversary adv(cluster);
  Rng rng(7);
  Bytes f1 = rng.RandomBytes(3000);
  cluster.Upload(1, f1);

  Bytes f2;
  for (std::uint32_t w = 0; w < 5; ++w) {
    adv.Corrupt((2 * w) % 10);
    adv.Corrupt((2 * w + 1) % 10);
    if (w == 1) {
      f2 = rng.RandomBytes(500);
      cluster.Upload(2, f2);
    }
    if (w == 3) cluster.Delete(2);
    WindowReport report = cluster.RunUpdateWindow();
    ASSERT_TRUE(report.ok) << "window " << w;
    adv.ObserveWindow();
    EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), f1) << "window " << w;
    if (w == 1 || w == 2) {
      EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(2)), f2);
    }
  }
  // The adversary touched every host at least once yet never breached.
  EXPECT_FALSE(adv.AttemptReconstruction(1).has_value());
  EXPECT_FALSE(adv.AttemptMixedReconstruction(1).has_value());
  // The deleted file is gone everywhere.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(cluster.host(i).store().Has(2));
  }
}

TEST(LongHorizon, StorageFootprintStaysBounded) {
  // Refresh must not grow the at-rest share footprint (old shares deleted).
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = 31;
  Cluster cluster(cfg);
  Rng rng(1);
  cluster.Upload(1, rng.RandomBytes(2048));
  std::uint64_t bytes0 = cluster.host(0).store().SecondaryBytes();
  for (int w = 0; w < 3; ++w) ASSERT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.host(0).store().SecondaryBytes(), bytes0);
}

}  // namespace
}  // namespace pisces
