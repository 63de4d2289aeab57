// The fleet of a process-per-host deployment (docs/deployment.md): the
// Hypervisor's four fleet jobs as wire RPCs to pisces_hostd processes
// (pisces/host_process.h) over the hypervisor's AsyncTcpEndpoint.
//
//   boot/halt -> kBootHost / kHaltHost, acked by a kStatusReport;
//   survey    -> kStatusRequest to every host, answered by its HostStatus;
//   settle    -> wait for the round's kPhaseDone reports;
//   sweep     -> kAbortStuck(epoch = op) to every host, acked by its
//                serialized Host::SweepResult.
//
// Every wait carries the paper's bounded-delay deadline (MpConfig::
// deadline_ms), one per RPC fan-out rather than one per host; an expiry is
// counted as net.deadline_expiries and the hosts that stayed silent are
// treated as unreachable. A host whose process crashed comes back (via its
// supervisor) unbooted, surveys as offline, and is rebooted and recovered by
// the window's restart schedule like any other host.
#pragma once

#include <functional>
#include <map>

#include "net/async_tcp.h"
#include "pisces/hypervisor.h"
#include "pisces/mp_config.h"

namespace pisces {

// The hypervisor configuration of the deployment `cfg` describes.
HypervisorConfig HypervisorConfigFor(const MpConfig& cfg);

// Sends `cert` (kHostCert) from `ep` to hosts 0..hosts-1: how an external
// participant enrolled after the hosts booted introduces itself to them.
void AnnounceCert(net::Transport& ep, const crypto::HostCert& cert,
                  std::uint32_t hosts);

class ProcessFleet final : public Fleet {
 public:
  ProcessFleet(MpConfig cfg, net::AsyncTcpEndpoint& endpoint);

  // Runs inside every wait: the launcher reaps and restarts crashed children
  // here, tests pump in-process hosts.
  void SetTick(std::function<void()> tick) { tick_ = std::move(tick); }
  // Fires once, at the start of the next Settle that awaits phase reports --
  // right after a round's start messages left (the crash drill's seam).
  void SetSettleHook(std::function<void()> hook) { hook_ = std::move(hook); }

  bool Boot(std::uint32_t id, BootMaterial boot) override;
  void Halt(std::uint32_t id) override;
  std::vector<HostStatus> Survey() override;
  std::uint64_t Settle(net::MessageHandler& sink, std::uint32_t seq,
                       std::size_t reports) override;
  std::vector<Host::SweepResult> Sweep(std::uint32_t seq) override;

 private:
  // Sends `type` (row = a fresh token, epoch = `seq`) to each host in `to`
  // and returns the payloads of the kStatusReports echoing the token, by
  // host, once all answered or the deadline fired.
  std::map<std::uint32_t, Bytes> Ask(net::MsgType type,
                                     std::span<const std::uint32_t> to,
                                     std::uint32_t seq = 0,
                                     const Bytes& payload = {});
  // Next message before `deadline_ms` (monotonic), ticking while it waits.
  std::optional<net::Message> Next(std::uint64_t deadline_ms);
  std::vector<std::uint32_t> AllHosts() const;

  MpConfig cfg_;
  net::AsyncTcpEndpoint& ep_;
  std::shared_ptr<const field::FpCtx> ctx_;
  std::function<void()> tick_;
  std::function<void()> hook_;
  std::uint32_t next_token_ = 1;
  std::vector<net::Message> stash_;  // kPhaseDone received between settles
  std::vector<HostMetrics> last_metrics_;  // a silent host's last report
};

}  // namespace pisces
