// One storage host as an operating-system process: the Host state machine
// wrapped with a wire control plane (docs/deployment.md).
//
// In-process clusters drive Host lifecycle through direct privileged calls
// (LocalFleet, the paper's Fig 4 management channel). A process-per-host
// deployment cannot: the hypervisor lives in another process and reaches
// this one through a ProcessFleet. HostProcess is the host side of that
// control plane -- it owns the async TCP endpoint and the Host, services the
// control message types (kBootHost/kHaltHost/kStatusRequest/kAbortStuck) by
// calling the privileged methods and answering with a kStatusReport, and
// forwards everything else to the Host.
//
// Control messages are only honored from the hypervisor endpoint id; the boot
// payload carries the CA public key (trust-on-first-boot over the loopback
// management link, the deployment doc spells out the threat model). A freshly
// exec'd hostd owns no key material and surveys as offline until the
// hypervisor boots it.
#pragma once

#include <memory>

#include "net/async_tcp.h"
#include "pisces/fleet.h"
#include "pisces/mp_config.h"

namespace pisces {

class HostProcess {
 public:
  HostProcess(MpConfig cfg, std::uint32_t id);

  // Serves until the process dies (deployment).
  void Serve();

  // One service step, factored out so tests can drive it synchronously.
  void HandleMessage(const net::Message& msg);
  // Handles every message already queued on the endpoint, without blocking.
  void Drain();

  net::AsyncTcpEndpoint& endpoint() { return *endpoint_; }
  Host* host() { return host_.get(); }

 private:
  void OnBootHost(const net::Message& msg);
  void OnHaltHost(const net::Message& msg);
  void Reply(std::uint32_t echo_row, Bytes payload);
  void SendStatus(std::uint32_t echo_row);

  MpConfig cfg_;
  std::uint32_t id_;
  std::shared_ptr<const field::FpCtx> ctx_;
  std::unique_ptr<net::AsyncTcpEndpoint> endpoint_;
  std::unique_ptr<Host> host_;
  Bytes ca_pk_;  // learned at first boot
};

// Entry point for the pisces_hostd binary.
int RunHostProcess(const std::string& config_path, std::uint32_t id);

}  // namespace pisces
