// Crash-restart drill for the process-per-host deployment (ctest -L
// mp_drill).
//
// The acceptance drill of docs/deployment.md: launch n=10 real host
// processes, upload a file, then SIGKILL t=2 of them right after the first
// refresh round is launched. The window -- the Hypervisor's one
// implementation, over a ProcessFleet -- must still complete (quorum refresh
// with wedge-abort + retry); the supervisor must restart the dead processes;
// the restart schedule must reboot them and recover their shares; and the
// file must download bit-identically afterwards. A second, undisturbed
// window then proves the cluster is fully healed, not limping: it reboots
// every host by schedule with no deferral and no failure.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "common/log.h"
#include "common/rng.h"
#include "field/primes.h"
#include "net/async_tcp.h"
#include "pisces/client.h"
#include "pisces/mp_config.h"
#include "pisces/mp_supervisor.h"
#include "pisces/process_fleet.h"

#ifndef PISCES_HOSTD_PATH
#error "build must define PISCES_HOSTD_PATH"
#endif

namespace {

using namespace pisces;

int Fail(const char* what) {
  std::printf("FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarn);

  MpConfig cfg;
  cfg.n = 10;
  cfg.t = 2;
  cfg.l = 2;
  cfg.r = 1;
  cfg.field_bits = 256;
  // A fixed block below Linux's ephemeral range (32768-60999), so no
  // outgoing connection can hold one of its ports: 31200-31211.
  cfg.base_port = 31200;
  cfg.seed = 20'170'605;  // ICDCS'17
  cfg.heartbeat_ms = 100;
  cfg.deadline_ms = 8000;
  cfg.restart_backoff_ms = 50;
  cfg.run_dir = "/tmp/pisces-mp-drill." + std::to_string(::getpid());
  cfg.hostd = PISCES_HOSTD_PATH;
  cfg.Validate();

  const std::string config_path = cfg.run_dir + "/deploy.conf";
  MpSupervisor supervisor(cfg, config_path);  // creates run_dir
  cfg.Save(config_path);
  supervisor.StartAll();

  net::AsyncTcpOptions hopts;
  hopts.id = net::kHypervisorId;
  hopts.listen_port = cfg.HypervisorPort();
  hopts.seed = cfg.seed ^ 0x51;
  hopts.heartbeat_interval_ms = cfg.heartbeat_ms;
  net::AsyncTcpEndpoint hyper_ep(hopts);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    hyper_ep.AddPeer(i, cfg.HostPort(i));
  }
  hyper_ep.AddPeer(net::kClientId, cfg.ClientPort());

  ProcessFleet fleet(cfg, hyper_ep);
  fleet.SetTick([&supervisor] { supervisor.Poll(); });
  Hypervisor hyper(HypervisorConfigFor(cfg), fleet, hyper_ep,
                   crypto::SchnorrGroup::Default());
  auto [client_cert, client_sk] = hyper.EnrollExternal(net::kClientId);
  std::printf("drill: %u hosts booted (t=%u)\n", cfg.n, cfg.t);

  // Stock client over its own async endpoint.
  net::AsyncTcpOptions copts;
  copts.id = net::kClientId;
  copts.listen_port = cfg.ClientPort();
  copts.seed = cfg.seed ^ 0x52;
  copts.heartbeat_interval_ms = cfg.heartbeat_ms;
  net::AsyncTcpEndpoint client_ep(copts);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    client_ep.AddPeer(i, cfg.HostPort(i));
  }
  client_ep.AddPeer(net::kHypervisorId, cfg.HypervisorPort());

  ClientConfig cc;
  cc.params = cfg.ToParams();
  cc.ctx = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(cfg.field_bits));
  cc.encrypt_links = cfg.encrypt;
  Client client(cc, client_ep, crypto::SchnorrGroup::Default(),
                hyper.ca_public_key(), client_cert, client_sk);
  for (const auto& [id, cert] : hyper.directory()) {
    if (id != net::kClientId) client.InstallPeerCert(cert);
  }
  AnnounceCert(client_ep, client_cert, cfg.n);

  auto pump_client = [&](auto done, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    bool ok = done();
    while (!ok && std::chrono::steady_clock::now() < deadline) {
      auto msg = client_ep.ReceiveWait(50);
      if (msg) client.HandleMessage(*msg);
      supervisor.Poll();
      ok = done();
    }
    return ok;
  };

  Rng file_rng(cfg.seed + 55);
  const Bytes file = file_rng.RandomBytes(6 * 1024 + 123);
  client.BeginUpload(1, file);
  if (!pump_client([&] { return client.UploadAcks(1) == cfg.n; }, 20'000)) {
    return Fail("upload not acknowledged by all hosts");
  }
  client.FinishUpload(1);
  std::printf("drill: uploaded %zu bytes\n", file.size());

  // THE DRILL: SIGKILL t hosts right after the first refresh round of the
  // window is launched.
  const std::vector<std::uint32_t> victims = {1, 4};
  fleet.SetSettleHook([&] {
    for (std::uint32_t v : victims) {
      if (!supervisor.Signal(v, SIGKILL)) {
        std::printf("drill: WARNING victim %u was not running\n", v);
      }
    }
    std::printf("drill: SIGKILLed hosts 1 and 4 mid-window\n");
  });

  const WindowReport report = hyper.RunUpdateWindow();
  std::printf("drill: window done: %s, %zu reboots (%zu deferred), %llu "
              "refresh retries, %llu recovery retries, %llu restarts\n",
              report.ok ? "ok" : "FAILED", report.reboots,
              report.reboots_deferred,
              static_cast<unsigned long long>(report.refresh_retries),
              static_cast<unsigned long long>(report.recovery_retries),
              static_cast<unsigned long long>(supervisor.restarts()));
  for (const std::string& f : report.failures) {
    std::printf("drill:   %s\n", f.c_str());
  }
  if (!report.ok) return Fail("window did not complete");
  if (supervisor.restarts() < victims.size()) {
    return Fail("supervisor did not restart the killed hosts");
  }
  const std::vector<HostStatus> status = fleet.Survey();
  for (std::uint32_t v : victims) {
    if (!status[v].online) return Fail("victim not back online");
    if (!status[v].Holds(1)) return Fail("victim lost the file's shares");
  }
  std::printf("drill: victims rebooted and recovered their shares\n");

  client.BeginDownload(pisces::ReadSpec::Classic(1));
  Bytes back;
  const bool got = pump_client(
      [&] {
        if (client.ResponsesFor(1) < cc.params.degree() + 1) {
          client.RetryDownload(pisces::ReadSpec::Classic(1));
          return false;
        }
        auto data = client.TryAssemble(1);
        if (!data) return false;
        back = *data;
        return true;
      },
      20'000);
  if (!got) return Fail("download did not assemble");
  if (back != file) return Fail("download is not bit-identical");
  std::printf("drill: download bit-identical after crash-restart\n");

  // A clean window proves the cluster healed, not merely survived: the
  // restart schedule reboots every host, none is deferred, nothing fails.
  const WindowReport calm = hyper.RunUpdateWindow();
  std::printf("drill: calm window: %s, %zu reboots (%zu deferred), %zu "
              "failures\n",
              calm.ok ? "ok" : "FAILED", calm.reboots, calm.reboots_deferred,
              calm.failures.size());
  if (!calm.ok || !calm.failures.empty()) {
    return Fail("post-recovery window failed");
  }
  if (calm.reboots != cfg.n || calm.reboots_deferred != 0) {
    return Fail("post-recovery window did not reboot every host by schedule");
  }

  supervisor.StopAll();
  std::printf("PASS: crash-restart drill (n=%u, t=%u killed)\n", cfg.n,
              cfg.t);
  return 0;
}
