// The deployed window: the Hypervisor over a ProcessFleet, with n HostProcess
// objects (the pisces_hostd state machine) in this process on loopback
// AsyncTcpEndpoints. No supervisor and no extra threads: the fleet's tick
// drains every host's endpoint between waits, so each host's protocol code
// runs on the test thread, as it would in its own process.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "field/primes.h"
#include "obs/registry.h"
#include "pisces/byzantine.h"
#include "pisces/client.h"
#include "pisces/host_process.h"
#include "pisces/process_fleet.h"

namespace pisces {
namespace {

// A whole deployment on the loopback block [base_port, base_port + n + 1],
// below Linux's ephemeral range (32768-60999).
struct Rig {
  explicit Rig(std::uint16_t base_port) {
    cfg.base_port = base_port;
    cfg.seed = 1607;
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      hosts.push_back(std::make_unique<HostProcess>(cfg, i));
    }
    hyper_ep = Endpoint(net::kHypervisorId, cfg.HypervisorPort());
    client_ep = Endpoint(net::kClientId, cfg.ClientPort());

    fleet = std::make_unique<ProcessFleet>(cfg, *hyper_ep);
    fleet->SetTick([this] { Pump(); });
    hyper = std::make_unique<Hypervisor>(HypervisorConfigFor(cfg), *fleet,
                                         *hyper_ep,
                                         crypto::SchnorrGroup::Default());
    auto [cert, sk] = hyper->EnrollExternal(net::kClientId);
    ClientConfig cc;
    cc.params = cfg.ToParams();
    cc.ctx = ctx;
    cc.encrypt_links = cfg.encrypt;
    client = std::make_unique<Client>(cc, *client_ep,
                                      crypto::SchnorrGroup::Default(),
                                      hyper->ca_public_key(), cert, sk);
    for (const auto& [id, c] : hyper->directory()) {
      if (id != net::kClientId) client->InstallPeerCert(c);
    }
    AnnounceCert(*client_ep, cert, cfg.n);
  }

  std::unique_ptr<net::AsyncTcpEndpoint> Endpoint(std::uint32_t id,
                                                  std::uint16_t port) {
    net::AsyncTcpOptions o;
    o.id = id;
    o.listen_port = port;
    o.seed = cfg.seed ^ id;
    o.heartbeat_interval_ms = cfg.heartbeat_ms;
    auto ep = std::make_unique<net::AsyncTcpEndpoint>(o);
    for (std::uint32_t i = 0; i < cfg.n; ++i) ep->AddPeer(i, cfg.HostPort(i));
    return ep;
  }

  void Pump() {
    for (auto& h : hosts) h->Drain();
    while (auto m = client_ep->Receive()) client->HandleMessage(*m);
  }

  bool PumpUntil(const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      Pump();
      if (auto m = client_ep->ReceiveWait(1)) client->HandleMessage(*m);
    }
    return true;
  }

  bool Upload(std::uint64_t id, const Bytes& data) {
    client->BeginUpload(id, data);
    const bool acked =
        PumpUntil([&] { return client->UploadAcks(id) == cfg.n; });
    client->FinishUpload(id);
    return acked;
  }

  Bytes Download(std::uint64_t id) {
    const ReadSpec spec = ReadSpec::Classic(id);
    client->BeginDownload(spec);
    Bytes back;
    PumpUntil([&] {
      if (client->ResponsesFor(id) < cfg.ToParams().degree() + 1) {
        client->RetryDownload(spec);
        return false;
      }
      auto data = client->TryAssemble(id);
      if (data) back = std::move(*data);
      return data.has_value();
    });
    return back;
  }

  MpConfig cfg;  // n=7, t=1, l=2, r=1 at g=256
  std::shared_ptr<const field::FpCtx> ctx =
      std::make_shared<const field::FpCtx>(field::StandardPrimeBe(256));
  std::vector<std::unique_ptr<HostProcess>> hosts;
  std::unique_ptr<net::AsyncTcpEndpoint> hyper_ep;
  std::unique_ptr<net::AsyncTcpEndpoint> client_ep;
  std::unique_ptr<ProcessFleet> fleet;
  std::unique_ptr<Hypervisor> hyper;
  std::unique_ptr<Client> client;
};

std::string Joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

// The guarantee the deployment makes: every window reboots every host by
// the restart schedule with recovery, and a corrupt dealer is attributed and
// excluded instead of failing the refresh.
TEST(ProcessFleet, WindowsRebootEveryHostAndExcludeACorruptDealer) {
  Rig rig(31300);
  Rng rng(5);
  const Bytes file = rng.RandomBytes(3000);
  ASSERT_TRUE(rig.Upload(1, file));

  constexpr std::uint32_t kCorrupt = 3;
  ByzantinePlan plan;
  plan.seed = 0xC0;
  plan.hosts[kCorrupt] = ByzantineStrategy::kCorruptDeal;
  ByzantineEngine engine(plan, *rig.ctx);
  rig.hosts[kCorrupt]->host()->ArmByzantine(engine.ActorFor(kCorrupt));

  const obs::Snapshot before = obs::TakeSnapshot();
  for (int w = 0; w < 2; ++w) {
    SCOPED_TRACE(w);
    // The first refresh round fails verification and attributes the dealer;
    // the retry's settle observes it excluded (the window's own reboot of
    // the host wipes the record again afterwards).
    bool excluded_on_retry = false;
    rig.fleet->SetSettleHook([&] {
      rig.fleet->SetSettleHook([&] {
        excluded_on_retry = rig.hyper->excluded_dealers().count(kCorrupt) == 1;
      });
    });
    const WindowReport report = rig.hyper->RunUpdateWindow();
    EXPECT_TRUE(report.ok) << Joined(report.failures);
    EXPECT_EQ(report.reboots, rig.cfg.n);
    EXPECT_EQ(report.reboots_deferred, 0u);
    EXPECT_GE(report.refresh_retries, 1u);
    EXPECT_TRUE(excluded_on_retry);
  }
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_GE(obs::Value(delta, "byz.dealers_attributed"), 1u);
  EXPECT_EQ(rig.Download(1), file);
}

// Resharing has no wire control plane: over a ProcessFleet it is refused
// up front and no host changes.
TEST(ProcessFleet, ReshareIsRefusedAndTouchesNoHost) {
  Rig rig(31320);
  Rng rng(6);
  const Bytes file = rng.RandomBytes(1000);
  ASSERT_TRUE(rig.Upload(1, file));
  const std::vector<HostStatus> before = rig.fleet->Survey();

  ReshareReport report;
  EXPECT_FALSE(rig.hyper->Reshare(rig.cfg.ToParams(), &report));
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("in-process"), std::string::npos);

  const std::vector<HostStatus> after = rig.fleet->Survey();
  for (std::uint32_t i = 0; i < rig.cfg.n; ++i) {
    EXPECT_TRUE(after[i].online) << i;
    EXPECT_EQ(after[i].epoch, before[i].epoch) << i;
    EXPECT_TRUE(after[i].Holds(1)) << i;
  }
  EXPECT_EQ(rig.Download(1), file);
}

}  // namespace
}  // namespace pisces
