// Full-system integration tests: upload, proactive update windows (refresh +
// scheduled reboots + recovery), download, multiple files, deployments,
// schedules, metrics.
#include <gtest/gtest.h>

#include "obs/registry.h"
#include "pisces/pisces.h"

namespace pisces {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = 11;
  return cfg;
}

TEST(Cluster, UploadDownloadRoundTrip) {
  Cluster cluster(SmallConfig());
  Rng rng(1);
  Bytes file = rng.RandomBytes(2000);
  FileMeta meta = cluster.Upload(1, file);
  EXPECT_EQ(meta.raw_size, 2000u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, UpdateWindowPreservesFileAndRotatesShares) {
  Cluster cluster(SmallConfig());
  Rng rng(2);
  Bytes file = rng.RandomBytes(3000);
  cluster.Upload(5, file);

  auto before = cluster.host(3).store().Load(5);
  cluster.host(3).store().Stash(5);

  WindowReport report = cluster.RunUpdateWindow();
  EXPECT_TRUE(report.ok) << (report.failures.empty() ? ""
                                                     : report.failures[0]);
  EXPECT_EQ(report.reboots, 8u);  // complete schedule
  EXPECT_GT(report.rerandomize_total.cpu_ns, 0u);
  EXPECT_GT(report.recover_total.bytes_sent, 0u);

  auto after = cluster.host(3).store().Load(5);
  cluster.host(3).store().Stash(5);
  EXPECT_NE(before, after);

  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(5)), file);
}

TEST(Cluster, MultipleWindowsMultipleFiles) {
  Cluster cluster(SmallConfig());
  Rng rng(3);
  Bytes f1 = rng.RandomBytes(1500);
  Bytes f2 = rng.RandomBytes(64);
  Bytes f3 = rng.RandomBytes(9000);
  cluster.Upload(1, f1);
  cluster.Upload(2, f2);
  cluster.Upload(3, f3);
  for (int w = 0; w < 3; ++w) {
    WindowReport report = cluster.RunUpdateWindow();
    ASSERT_TRUE(report.ok) << "window " << w;
  }
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), f1);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(2)), f2);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(3)), f3);
}

TEST(Cluster, DeleteRemovesShares) {
  Cluster cluster(SmallConfig());
  Rng rng(4);
  Bytes file = rng.RandomBytes(100);
  cluster.Upload(9, file);
  cluster.Delete(9);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cluster.host(i).store().Has(9));
  }
  EXPECT_THROW(cluster.Download(pisces::ReadSpec::Classic(9)), Error);
}

TEST(Cluster, EmptyFileAndTinyFile) {
  Cluster cluster(SmallConfig());
  Bytes empty;
  cluster.Upload(1, empty);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), empty);
  Bytes one{0x42};
  cluster.Upload(2, one);
  cluster.RunUpdateWindow();
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), empty);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(2)), one);
}

TEST(Cluster, RandomizedScheduleWorks) {
  ClusterConfig cfg = SmallConfig();
  cfg.schedule = "randomized";
  Cluster cluster(cfg);
  Rng rng(6);
  Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);
  WindowReport report = cluster.RunUpdateWindow();
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, PlaintextLinksModeWorks) {
  ClusterConfig cfg = SmallConfig();
  cfg.encrypt_links = false;
  Cluster cluster(cfg);
  Rng rng(7);
  Bytes file = rng.RandomBytes(700);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, EncryptionActuallyHidesPayloads) {
  // With encrypted links, a network observer (the tap) never sees the raw
  // share bytes that the host stores.
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(cfg);
  Rng rng(8);
  Bytes file = rng.RandomBytes(300);

  std::vector<Bytes> observed;
  cluster.net().SetTap([&](const net::Message& m) {
    if (m.type == net::MsgType::kSetShares) observed.push_back(m.payload);
  });
  cluster.Upload(1, file);
  cluster.net().SetTap(nullptr);
  ASSERT_EQ(observed.size(), 8u);

  auto& shares = cluster.host(0).store().Load(1);
  Bytes raw = field::SerializeElems(cluster.ctx(), shares);
  cluster.host(0).store().Stash(1);
  for (const Bytes& payload : observed) {
    // Raw share material must not appear inside any observed payload.
    auto it = std::search(payload.begin(), payload.end(), raw.begin(),
                          raw.begin() + 32);
    EXPECT_EQ(it, payload.end());
  }
}

TEST(Cluster, MetricsAccumulateAndReset) {
  Cluster cluster(SmallConfig());
  Rng rng(9);
  cluster.Upload(1, rng.RandomBytes(1000));
  cluster.ResetMetrics();
  cluster.RunUpdateWindow();
  HostMetrics total = cluster.TotalMetrics();
  EXPECT_GT(total.rerandomize.cpu_ns, 0u);
  EXPECT_GT(total.rerandomize.bytes_sent, 0u);
  EXPECT_GT(total.recover.cpu_ns, 0u);
  cluster.ResetMetrics();
  total = cluster.TotalMetrics();
  EXPECT_EQ(total.rerandomize.cpu_ns, 0u);
}

TEST(Cluster, RefreshOnlyKeepsFileIntact) {
  Cluster cluster(SmallConfig());
  Rng rng(10);
  Bytes file = rng.RandomBytes(2048);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RefreshAllFiles());
  EXPECT_TRUE(cluster.RefreshAllFiles());  // idempotent across epochs
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, DeploymentMismatchRejected) {
  ClusterConfig cfg = SmallConfig();
  cfg.deployment = Deployment::MultiCloud(9, 3);  // n mismatch (8 != 9)
  EXPECT_THROW(Cluster cluster(cfg), InvalidArgument);
}

TEST(Cluster, MultiCloudDeploymentRuns) {
  ClusterConfig cfg = SmallConfig();
  cfg.deployment = Deployment::MultiCloud(8, 4);
  Cluster cluster(cfg);
  Rng rng(12);
  Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  EXPECT_EQ(cluster.deployment().MinProvidersToBreach(cfg.params.t), 1u);
}

TEST(Cluster, DownloadSurvivesOfflineMinority) {
  // n=8, d=t+l=3: any d+1=4 responses suffice; take 3 hosts offline.
  Cluster cluster(SmallConfig());
  Rng rng(13);
  Bytes file = rng.RandomBytes(800);
  cluster.Upload(1, file);
  cluster.net().SetOffline(2, true);
  cluster.net().SetOffline(5, true);
  cluster.net().SetOffline(7, true);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, DownloadFailsBelowThreshold) {
  Cluster cluster(SmallConfig());
  Rng rng(14);
  cluster.Upload(1, rng.RandomBytes(100));
  for (std::uint32_t i = 0; i < 5; ++i) cluster.net().SetOffline(i, true);
  // Only 3 hosts respond < d+1 = 4.
  EXPECT_THROW(cluster.Download(pisces::ReadSpec::Classic(1)), Error);
}

TEST(Cluster, WorkerPoolProducesSameResults) {
  ClusterConfig cfg = SmallConfig();
  cfg.params.b = 3;
  Cluster cluster(cfg);
  Rng rng(15);
  Bytes file = rng.RandomBytes(1200);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, HostCertsRotateOnReboot) {
  Cluster cluster(SmallConfig());
  std::uint32_t epoch_before = cluster.host(0).epoch();
  cluster.RunUpdateWindow();
  EXPECT_GT(cluster.host(0).epoch(), epoch_before);
}

std::uint64_t CertVerifies() {
  return obs::Value(obs::TakeSnapshot(), "crypto.cert_verifies");
}

// Verify-once across one reboot at n hosts plus the client: the rebooted
// host checks its own cert and the n directory certs (n - 1 hosts and the
// client), and each of the n receivers of its broadcast (n - 1 hosts and the
// client) checks the new cert once. No receiver verifies a (host, epoch)
// twice, so the count is exact.
TEST(Cluster, OneRebootVerifiesEachCertOncePerReceiver) {
  Cluster cluster(SmallConfig());
  const std::uint64_t n = cluster.config().params.n;
  Rng rng(41);
  Bytes file = rng.RandomBytes(700);
  cluster.Upload(1, file);
  const std::uint64_t before = CertVerifies();
  const std::uint32_t batch[] = {3};
  EXPECT_TRUE(cluster.hypervisor().RebootAndRecover(batch));
  EXPECT_EQ(CertVerifies() - before, 1 + n + n);
  const crypto::HostCert& fresh = cluster.hypervisor().directory().at(3);
  ASSERT_NE(cluster.client().peer_cert(3), nullptr);
  EXPECT_EQ(*cluster.client().peer_cert(3), fresh);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(*cluster.host(i).peer_cert(3), fresh) << i;
  }
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

// Counter pin for upload share generation: after one warm-up upload (which
// builds the client's generator matrix and its channels), sharing a file is
// inversion-free.
TEST(Cluster, WarmUploadIsInversionFree) {
  Cluster cluster(SmallConfig());
  Rng rng(43);
  cluster.Upload(1, rng.RandomBytes(900));
  const obs::Snapshot before = obs::TakeSnapshot();
  cluster.client().BeginUpload(2, rng.RandomBytes(900));
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_EQ(obs::Value(delta, "field.inversions"), 0u);
  cluster.sync().RunToQuiescence();
  EXPECT_EQ(cluster.client().UploadAcks(2), cluster.config().params.n);
}

// The client side of the replayed-cert fix: host 0's current cert replayed to
// the client must leave the client's sealed channel to host 0 as it was. A
// reinstall would restart the client's send counter, and host 0 would then
// reject every new frame from the client as a replay.
TEST(Cluster, ReplayedHostCertKeepsClientChannel) {
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.config().encrypt_links);
  const std::size_t n = cluster.config().params.n;
  Rng rng(43);
  for (std::uint64_t f = 1; f <= 3; ++f) cluster.Upload(f, rng.RandomBytes(200));
  const crypto::HostCert cert = cluster.hypervisor().directory().at(0);
  net::Message replay;
  replay.from = 0;
  replay.to = net::kClientId;
  replay.type = net::MsgType::kHostCert;
  replay.epoch = cert.epoch;
  replay.payload = cert.Serialize();
  const std::uint64_t verifies = CertVerifies();
  cluster.client().HandleMessage(replay);
  EXPECT_EQ(CertVerifies(), verifies);
  EXPECT_EQ(*cluster.client().peer_cert(0), cert);

  // A different cert for the installed (host, epoch) is refused outright.
  crypto::HostCert conflicting = cert;
  conflicting.host_pk = cluster.hypervisor().directory().at(1).host_pk;
  EXPECT_THROW(cluster.client().InstallPeerCert(conflicting), InvalidArgument);
  EXPECT_EQ(*cluster.client().peer_cert(0), cert);

  const Bytes file = rng.RandomBytes(200);
  cluster.client().BeginUpload(9, file);
  cluster.sync().RunToQuiescence();
  EXPECT_EQ(cluster.client().UploadAcks(9), n) << "host 0 must accept the "
                                                  "client's next frame";
}

}  // namespace
}  // namespace pisces
