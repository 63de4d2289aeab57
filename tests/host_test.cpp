// Direct host state-machine tests: boot/shutdown semantics, cert handling,
// duplicate and out-of-order protocol messages, session lifecycle -- driven
// through a hand-built SimNet without the full Cluster facade.
#include <gtest/gtest.h>

#include <memory>

#include "field/primes.h"
#include "obs/registry.h"
#include "pisces/host.h"

namespace pisces {
namespace {

// Collects everything addressed to an endpoint (plays the hypervisor).
class Collector : public net::MessageHandler {
 public:
  void HandleMessage(const net::Message& msg) override {
    messages.push_back(msg);
  }
  std::vector<net::Message> messages;
};

class HostHarness {
 public:
  explicit HostHarness(bool encrypt_links = false)
      : rng_(71), ca_(crypto::SchnorrGroup::Default(), rng_) {
    params_.n = 5;
    params_.t = 1;
    params_.l = 1;
    params_.r = 1;
    params_.field_bits = 256;
    ctx_ = std::make_shared<const field::FpCtx>(field::StandardPrimeBe(256));
    for (std::uint32_t i = 0; i < params_.n; ++i) {
      endpoints_.push_back(net_.AddEndpoint(i));
      HostConfig hc;
      hc.id = i;
      hc.params = params_;
      hc.ctx = ctx_;
      hc.encrypt_links = encrypt_links;  // most tests poke at plaintext
      hosts_.push_back(std::make_unique<Host>(
          hc, *endpoints_.back(), crypto::SchnorrGroup::Default(),
          ca_.public_key()));
      sync_.Register(i, endpoints_.back(), hosts_.back().get());
      peers_.push_back(i);
    }
    hyper_ep_ = net_.AddEndpoint(net::kHypervisorId);
    sync_.Register(net::kHypervisorId, hyper_ep_, &collector_);
    for (std::uint32_t i = 0; i < params_.n; ++i) BootHost(i);
    sync_.RunToQuiescence();
  }

  void BootHost(std::uint32_t id) {
    ++epoch_;
    auto [cert, sk] = ca_.IssueHostKey(id, epoch_, rng_);
    certs_[id] = cert;
    net_.SetOffline(id, false);
    hosts_[id]->Boot(epoch_, cert, std::move(sk), peers_);
    for (const auto& [peer, c] : certs_) {
      if (peer != id) hosts_[id]->InstallPeerCert(c);
    }
  }

  void InstallFile(std::uint64_t file_id, std::size_t blocks) {
    Rng rng(9);
    pss::PackedShamir shamir(ctx_, params_);
    FileMeta meta;
    meta.file_id = file_id;
    meta.raw_size = blocks;
    meta.num_elems = blocks;
    meta.num_blocks = blocks;
    std::vector<std::vector<field::FpElem>> per_host(
        params_.n, std::vector<field::FpElem>(blocks));
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<field::FpElem> secrets{ctx_->Random(rng)};
      auto shares = shamir.ShareBlock(secrets, rng);
      for (std::size_t i = 0; i < params_.n; ++i) per_host[i][b] = shares[i];
    }
    for (std::size_t i = 0; i < params_.n; ++i) {
      hosts_[i]->store().Put(meta, std::move(per_host[i]));
    }
  }

  void StartRefresh(std::uint64_t file_id, std::uint32_t epoch) {
    for (std::uint32_t i = 0; i < params_.n; ++i) {
      net::Message m;
      m.from = net::kHypervisorId;
      m.to = i;
      m.type = net::MsgType::kStartRefresh;
      m.file_id = file_id;
      m.epoch = epoch;
      hyper_ep_->Send(std::move(m));
    }
  }

  // Delivers `cert` to host `to` as a kHostCert from the cert's own host.
  void SendCert(const crypto::HostCert& cert, std::uint32_t to) {
    net::Message m;
    m.from = cert.host_id;
    m.to = to;
    m.type = net::MsgType::kHostCert;
    m.epoch = cert.epoch;
    m.payload = cert.Serialize();
    hosts_[to]->HandleMessage(m);
  }

  std::size_t DonesAtHypervisor() {
    std::size_t count = 0;
    for (const auto& m : collector_.messages) {
      if (m.type == net::MsgType::kPhaseDone && !m.payload.empty() &&
          m.payload[0] == 1) {
        ++count;
      }
    }
    collector_.messages.clear();
    return count;
  }

  pss::Params params_;
  std::shared_ptr<const field::FpCtx> ctx_;
  Rng rng_;
  crypto::CertAuthority ca_;
  net::SimNet net_;
  net::SyncNetwork sync_{net_};
  std::vector<net::SimEndpoint*> endpoints_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::uint32_t> peers_;
  net::SimEndpoint* hyper_ep_ = nullptr;
  Collector collector_;
  std::map<std::uint32_t, crypto::HostCert> certs_;
  std::uint32_t epoch_ = 0;
};

TEST(HostDirect, RefreshCompletesAndReports) {
  HostHarness h;
  h.InstallFile(1, 3);
  h.StartRefresh(1, 50);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
}

TEST(HostDirect, OfflineHostIgnoresMessages) {
  HostHarness h;
  h.InstallFile(1, 2);
  h.hosts_[2]->Shutdown();
  EXPECT_FALSE(h.hosts_[2]->online());
  net::Message m;
  m.from = net::kHypervisorId;
  m.to = 2;
  m.type = net::MsgType::kStartRefresh;
  m.file_id = 1;
  m.epoch = 60;
  h.hosts_[2]->HandleMessage(m);  // delivered directly, host offline
  EXPECT_FALSE(h.hosts_[2]->HasActiveSessions());
}

TEST(HostDirect, ShutdownWipesEverything) {
  HostHarness h;
  h.InstallFile(1, 2);
  EXPECT_TRUE(h.hosts_[0]->store().Has(1));
  h.hosts_[0]->Shutdown();
  EXPECT_FALSE(h.hosts_[0]->store().Has(1));
  EXPECT_EQ(h.hosts_[0]->store().SecondaryBytes(), 0u);
}

TEST(HostDirect, BootRejectsForeignCert) {
  HostHarness h;
  Rng rng(5);
  auto [cert, sk] = h.ca_.IssueHostKey(/*host_id=*/3, 9, rng);
  // Booting host 0 with host 3's cert must fail.
  EXPECT_THROW(h.hosts_[0]->Boot(9, cert, sk, h.peers_), InvalidArgument);
}

TEST(HostDirect, StaleCertDoesNotDowngrade) {
  HostHarness h;
  Rng rng(6);
  auto [old_cert, sk1] = h.ca_.IssueHostKey(1, 1, rng);
  auto [new_cert, sk2] = h.ca_.IssueHostKey(1, 5, rng);
  h.hosts_[0]->InstallPeerCert(new_cert);
  h.hosts_[0]->InstallPeerCert(old_cert);  // ignored: older epoch
  ASSERT_NE(h.hosts_[0]->peer_cert(1), nullptr);
  EXPECT_EQ(*h.hosts_[0]->peer_cert(1), new_cert);
}

std::uint64_t CertVerifies() {
  return obs::Value(obs::TakeSnapshot(), "crypto.cert_verifies");
}

// A host's current, validly signed cert replayed to a peer must not reinstall
// it: that would drop the cached channel and reset both anti-replay counters,
// after which the peer rejects every new frame as too old (and would accept
// old frames again). Sealed links, so the channel state is what is tested.
TEST(HostDirect, ReplayedHostCertKeepsSealedChannels) {
  HostHarness h(/*encrypt_links=*/true);
  h.InstallFile(1, 2);
  for (std::uint32_t e = 0; e < 40; ++e) {
    h.StartRefresh(1, 100 + e);
    h.sync_.RunToQuiescence();
    ASSERT_EQ(h.DonesAtHypervisor(), h.params_.n) << "refresh " << e;
  }
  const std::uint64_t verifies = CertVerifies();
  h.SendCert(h.certs_[1], 0);
  EXPECT_EQ(CertVerifies(), verifies) << "an installed (host, epoch) is "
                                         "never verified again";
  ASSERT_NE(h.hosts_[0]->peer_cert(1), nullptr);
  EXPECT_EQ(*h.hosts_[0]->peer_cert(1), h.certs_[1]);
  h.StartRefresh(1, 200);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

// A different cert for an installed (host, epoch) is rejected even when the
// CA really signed it; the installed cert and its channel stay.
TEST(HostDirect, ConflictingCertForInstalledEpochRejected) {
  HostHarness h(/*encrypt_links=*/true);
  h.InstallFile(1, 2);
  h.StartRefresh(1, 100);
  h.sync_.RunToQuiescence();
  ASSERT_EQ(h.DonesAtHypervisor(), h.params_.n);
  Rng rng(8);
  const crypto::HostCert other =
      h.ca_.IssueHostKey(1, h.certs_[1].epoch, rng).first;
  EXPECT_THROW(h.hosts_[0]->InstallPeerCert(other), InvalidArgument);
  h.SendCert(other, 0);  // the message path drops it
  EXPECT_EQ(*h.hosts_[0]->peer_cert(1), h.certs_[1]);
  h.StartRefresh(1, 101);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

// Forged certs through the OnHostCert path reach no peer_certs_ entry:
// a foreign CA's cert, a tampered signature, and a substituted key, each at a
// higher epoch than the installed one (the case that skips the same-epoch
// shortcut and must be verified), plus a cert sent by a different host.
TEST(HostDirect, ForgedCertsNeverInstalled) {
  HostHarness h(/*encrypt_links=*/true);
  h.InstallFile(1, 2);
  const crypto::HostCert genuine = h.certs_[2];
  const std::uint32_t next = genuine.epoch + 10;
  Rng rng(9);
  crypto::CertAuthority evil_ca(crypto::SchnorrGroup::Default(), rng);

  std::vector<crypto::HostCert> forged;
  forged.push_back(evil_ca.IssueHostKey(2, next, rng).first);
  crypto::HostCert tampered_sig = h.ca_.IssueHostKey(2, next, rng).first;
  tampered_sig.sig.s.back() ^= 1;
  forged.push_back(tampered_sig);
  crypto::HostCert swapped_key = h.ca_.IssueHostKey(2, next, rng).first;
  swapped_key.host_pk = evil_ca.IssueHostKey(2, next, rng).first.host_pk;
  forged.push_back(swapped_key);
  crypto::HostCert bumped_epoch = genuine;
  bumped_epoch.epoch = next;
  forged.push_back(bumped_epoch);

  for (std::size_t i = 0; i < forged.size(); ++i) {
    const std::uint64_t verifies = CertVerifies();
    h.SendCert(forged[i], 0);
    EXPECT_EQ(CertVerifies(), verifies + 1) << "forgery " << i;
    ASSERT_NE(h.hosts_[0]->peer_cert(2), nullptr);
    EXPECT_EQ(*h.hosts_[0]->peer_cert(2), genuine) << "forgery " << i;
  }
  // A valid cert relayed by another host is dropped before any check.
  net::Message relayed;
  relayed.from = 3;
  relayed.to = 0;
  relayed.type = net::MsgType::kHostCert;
  relayed.payload = h.ca_.IssueHostKey(2, next, rng).first.Serialize();
  h.hosts_[0]->HandleMessage(relayed);
  EXPECT_EQ(*h.hosts_[0]->peer_cert(2), genuine);

  h.StartRefresh(1, 300);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

// One reboot: the rebooted host verifies its own cert and each directory
// cert once, and each peer verifies the new cert once -- even though it
// arrives both by broadcast and, for the rebooted host, by direct install.
TEST(HostDirect, RebootVerifiesEachCertOncePerReceiver) {
  HostHarness h(/*encrypt_links=*/true);
  h.InstallFile(1, 2);
  const std::uint64_t n = h.params_.n;
  const std::uint64_t before = CertVerifies();
  h.hosts_[2]->Shutdown();
  h.BootHost(2);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(CertVerifies() - before, 1 + (n - 1) + (n - 1));
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(*h.hosts_[i]->peer_cert(2), h.certs_[2]) << i;
  }
}

TEST(HostDirect, DuplicateDealsAreIdempotent) {
  HostHarness h;
  h.InstallFile(1, 2);
  // Capture one deal in flight and replay it after delivery.
  std::optional<net::Message> captured;
  h.net_.SetTap([&](const net::Message& m) {
    if (!captured && m.type == net::MsgType::kDeal && m.to == 4) captured = m;
  });
  h.StartRefresh(1, 70);
  h.sync_.RunToQuiescence();
  h.net_.SetTap(nullptr);
  ASSERT_TRUE(captured.has_value());
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
  // Replaying the deal after the session completed: buffered as pending (the
  // session is gone), then discarded on the next session's replay sweep.
  h.hosts_[4]->HandleMessage(*captured);
  EXPECT_FALSE(h.hosts_[4]->HasActiveSessions());
  // A fresh refresh still works.
  h.StartRefresh(1, 71);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

TEST(HostDirect, RefreshForUnknownFileReportsDone) {
  HostHarness h;  // no file installed
  h.StartRefresh(99, 80);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

TEST(HostDirect, MetricsBucketsFill) {
  HostHarness h;
  h.InstallFile(1, 4);
  h.StartRefresh(1, 90);
  h.sync_.RunToQuiescence();
  const HostMetrics& m = h.hosts_[0]->metrics();
  EXPECT_GT(m.rerandomize.cpu_ns, 0u);
  EXPECT_GT(m.rerandomize.bytes_sent, 0u);
  EXPECT_GT(m.rerandomize.msgs_sent, 0u);
  EXPECT_EQ(m.serve.msgs_sent, 0u);  // no client traffic in this test
}

}  // namespace
}  // namespace pisces
