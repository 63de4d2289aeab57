// Distributed harness: the same Host state machines running over REAL TCP
// sockets on loopback (one AsyncTcpEndpoint per party), one thread per host,
// with a driver playing the hypervisor and the stock Client doing
// upload/download.
//
// Demonstrates that the protocol layer is transport-agnostic: everything the
// simulator runs (share upload, rerandomization, reboot + recovery,
// reconstruction) also runs over an actual network stack. Exits 0 only when
// the final download is bit-exact.
//
//   $ ./tcp_cluster [base_port]   (listens on base_port .. base_port + 8)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/log.h"
#include "net/async_tcp.h"
#include "pisces/pisces.h"

namespace {

using namespace pisces;

constexpr std::size_t kN = 7;

net::AsyncTcpOptions EndpointOpts(std::uint32_t id, std::uint16_t port) {
  net::AsyncTcpOptions o;
  o.id = id;
  o.listen_port = port;
  o.seed = 1 + id;  // reconnect jitter stream
  return o;
}

struct HostRunner {
  std::unique_ptr<net::AsyncTcpEndpoint> endpoint;
  std::unique_ptr<Host> host;
  std::thread thread;
  std::atomic<bool> running{false};

  void Start() {
    running.store(true);
    thread = std::thread([this] {
      while (running.load()) {
        auto msg = endpoint->ReceiveWait(50);
        if (msg) host->HandleMessage(*msg);
      }
    });
  }
  void Stop() {
    running.store(false);
    if (thread.joinable()) thread.join();
  }
  ~HostRunner() { Stop(); }
};

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarn);
  const std::uint16_t base =
      argc > 1 ? static_cast<std::uint16_t>(std::atoi(argv[1])) : 47100;

  pss::Params params;
  params.n = kN;
  params.t = 1;
  params.l = 2;  // d = 3
  params.r = 1;
  params.field_bits = 256;
  params.Validate();
  auto ctx = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(params.field_bits));

  const auto& group = crypto::SchnorrGroup::Default();
  Rng rng(1234);
  crypto::CertAuthority ca(group, rng);

  const std::uint16_t client_port = base + kN;
  const std::uint16_t hyper_port = base + kN + 1;

  std::printf("PiSCES over TCP: %zu hosts on 127.0.0.1:%u..%u\n", kN,
              static_cast<unsigned>(base), static_cast<unsigned>(hyper_port));

  // Bring up endpoints and the full peer mesh.
  std::vector<HostRunner> runners(kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    runners[i].endpoint = std::make_unique<net::AsyncTcpEndpoint>(
        EndpointOpts(i, static_cast<std::uint16_t>(base + i)));
  }
  net::AsyncTcpEndpoint client_ep(EndpointOpts(net::kClientId, client_port));
  net::AsyncTcpEndpoint hyper_ep(EndpointOpts(net::kHypervisorId, hyper_port));
  auto add_all_peers = [&](net::AsyncTcpEndpoint& ep) {
    for (std::uint32_t j = 0; j < kN; ++j) {
      if (ep.id() != j) ep.AddPeer(j, static_cast<std::uint16_t>(base + j));
    }
    if (ep.id() != net::kClientId) ep.AddPeer(net::kClientId, client_port);
    if (ep.id() != net::kHypervisorId) {
      ep.AddPeer(net::kHypervisorId, hyper_port);
    }
  };
  for (auto& r : runners) add_all_peers(*r.endpoint);
  add_all_peers(client_ep);
  add_all_peers(hyper_ep);

  // Create hosts and boot them with CA-signed keys (the driver is the
  // hypervisor: it holds the CA and the cert directory).
  std::vector<std::uint32_t> peers;
  for (std::uint32_t i = 0; i < kN; ++i) peers.push_back(i);
  peers.push_back(net::kClientId);
  std::map<std::uint32_t, crypto::HostCert> directory;
  for (std::uint32_t i = 0; i < kN; ++i) {
    HostConfig hc;
    hc.id = i;
    hc.params = params;
    hc.ctx = ctx;
    hc.rng_seed = 7 + i;
    runners[i].host = std::make_unique<Host>(hc, *runners[i].endpoint, group,
                                             ca.public_key());
    auto [cert, sk] = ca.IssueHostKey(i, 1, rng);
    directory[i] = cert;
    runners[i].host->Boot(1, cert, std::move(sk), peers);
  }
  // Provision every host with the full directory (certs also flow over TCP
  // via the boot broadcasts; direct install avoids startup races).
  auto [client_cert, client_sk] = ca.IssueHostKey(net::kClientId, 0, rng);
  directory[net::kClientId] = client_cert;
  for (auto& r : runners) {
    for (const auto& [id, cert] : directory) {
      if (id != r.host->id()) r.host->InstallPeerCert(cert);
    }
  }
  for (auto& r : runners) r.Start();

  // The stock Client over the TCP endpoint.
  ClientConfig cc;
  cc.params = params;
  cc.ctx = ctx;
  Client client(cc, client_ep, group, ca.public_key(), client_cert,
                client_sk);
  for (const auto& [id, cert] : directory) {
    if (id != net::kClientId) client.InstallPeerCert(cert);
  }
  // done() may consume state on success (TryAssemble erases the pending
  // download), so remember the first true rather than re-evaluating.
  auto pump_client = [&](auto done, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    bool ok = done();
    while (!ok && std::chrono::steady_clock::now() < deadline) {
      auto msg = client_ep.ReceiveWait(50);
      if (msg) client.HandleMessage(*msg);
      ok = done();
    }
    return ok;
  };

  // 1. Upload.
  Rng file_rng(5);
  Bytes file = file_rng.RandomBytes(6 * 1024);
  client.BeginUpload(1, file);
  if (!pump_client([&] { return client.UploadAcks(1) == kN; }, 10000)) {
    std::printf("FAILED: upload not acknowledged by all hosts\n");
    return 1;
  }
  std::printf("uploaded %zu bytes to %zu hosts over TCP\n", file.size(), kN);

  // 2. Rerandomize (driver acts as hypervisor).
  for (std::uint32_t i = 0; i < kN; ++i) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = i;
    m.type = net::MsgType::kStartRefresh;
    m.file_id = 1;
    m.epoch = 100;
    hyper_ep.Send(std::move(m));
  }
  std::size_t done_count = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (done_count < kN && std::chrono::steady_clock::now() < deadline) {
    auto msg = hyper_ep.ReceiveWait(100);
    if (msg && msg->type == net::MsgType::kPhaseDone && msg->row == 0) {
      if (msg->payload.empty() || msg->payload[0] != 1) {
        std::printf("FAILED: host %u reported refresh failure\n", msg->from);
        return 1;
      }
      ++done_count;
    }
  }
  std::printf("rerandomization complete on %zu/%zu hosts\n", done_count, kN);

  // 3. Reboot host 0 and recover its shares.
  FileMeta meta = runners[1].host->store().MetaOf(1);
  runners[0].Stop();
  runners[0].host->Shutdown();
  {
    auto [cert, sk] = ca.IssueHostKey(0, 2, rng);
    directory[0] = cert;
    runners[0].host->Boot(2, cert, std::move(sk), peers);
    for (const auto& [id, cert2] : directory) {
      if (id != 0) runners[0].host->InstallPeerCert(cert2);
    }
  }
  runners[0].Start();
  // Give the cert broadcast a moment to propagate before recovery traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (std::uint32_t i = 0; i < kN; ++i) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = i;
    m.type = net::MsgType::kStartRecovery;
    m.file_id = 1;
    m.epoch = 101;
    ByteWriter w;
    w.Blob(meta.Serialize());
    w.U32(1);
    w.U32(0);  // target host 0
    m.payload = w.Take();
    hyper_ep.Send(std::move(m));
  }
  bool recovered = false;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    auto msg = hyper_ep.ReceiveWait(100);
    if (msg && msg->type == net::MsgType::kPhaseDone && msg->row == 1 &&
        msg->from == 0) {
      recovered = !msg->payload.empty() && msg->payload[0] == 1;
      break;
    }
  }
  std::printf("host 0 rebooted and recovered its shares: %s\n",
              recovered ? "yes" : "NO");

  // 4. Download and verify.
  client.BeginDownload(pisces::ReadSpec::Classic(1));
  Bytes back;
  bool got = pump_client(
      [&] {
        if (client.ResponsesFor(1) < params.degree() + 1) return false;
        auto data = client.TryAssemble(1);
        if (!data) return false;
        back = *data;
        return true;
      },
      10000);
  std::printf("download over TCP: %s\n",
              (got && back == file) ? "bit-exact" : "FAILED");

  return (recovered && got && back == file) ? 0 : 1;
}
