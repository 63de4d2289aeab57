// The hypervisor's access to its hosts (paper SectionIV-A, Fig 4).
//
// The hypervisor runs one update window -- refresh, then the reboot schedule
// with share recovery after each batch -- over whatever fleet it is given.
// A fleet does four jobs and nothing else:
//   * boot/halt: boot a host with CA-signed boot material, or halt it
//     (secure disassociation wipes everything);
//   * survey:    report every host's reachability, stored files with their
//     FileMeta, and HostMetrics;
//   * settle:    wait out a launched round, delivering each kPhaseDone to the
//     hypervisor;
//   * sweep:     after a round, collect each host's stuck-session snapshots,
//     failed-refresh archives and active-session flag, then abort whatever
//     is stuck.
// Protocol traffic (kStartRefresh/kStartRecovery and everything the hosts
// exchange) travels the message fabric, not this interface.
//
// LocalFleet keeps the hosts in this process over the deterministic SimNet
// and drives them through direct privileged calls. ProcessFleet
// (pisces/process_fleet.h) reaches one pisces_hostd process per host over
// the wire control plane.
#pragma once

#include <memory>
#include <vector>

#include "crypto/ca.h"
#include "pisces/host.h"

namespace pisces {

// Everything a fresh host needs to rejoin the network (the kBootHost
// payload over the wire).
struct BootMaterial {
  Bytes ca_pk;
  std::uint32_t epoch = 0;
  crypto::HostCert cert;
  Bytes sk;
  std::vector<std::uint32_t> peers;
  std::vector<crypto::HostCert> directory;  // peer certs (client included)

  Bytes Serialize() const;
  static BootMaterial Deserialize(std::span<const std::uint8_t> data);
};

// One host as a survey sees it (the kStatusReport payload over the wire).
struct HostStatus {
  bool online = false;     // booted
  bool reachable = false;  // booted and on the network; not serialized
  std::uint32_t epoch = 0;
  std::vector<FileMeta> files;  // stored files, ascending id
  HostMetrics metrics;

  bool Holds(std::uint64_t file_id) const { return Meta(file_id) != nullptr; }
  const FileMeta* Meta(std::uint64_t file_id) const;

  Bytes Serialize() const;
  static HostStatus Deserialize(std::span<const std::uint8_t> data);
};

// The kAbortStuck ack: one host's sweep result on the wire.
Bytes SerializeSweep(const field::FpCtx& ctx, const Host::SweepResult& s);
Host::SweepResult DeserializeSweep(const field::FpCtx& ctx,
                                   std::span<const std::uint8_t> data);

class Fleet {
 public:
  virtual ~Fleet() = default;

  // Boots host `id` with `boot`; false when the host did not come up.
  virtual bool Boot(std::uint32_t id, BootMaterial boot) = 0;
  virtual void Halt(std::uint32_t id) = 0;
  // One entry per host slot, indexed by host id.
  virtual std::vector<HostStatus> Survey() = 0;
  // Waits out the round launched as op `seq`, from which `reports` phase
  // reports are due (0: only let boot-time cert broadcasts land), handing
  // every kPhaseDone to `sink`. Returns the synchronous rounds it took where
  // the fleet can count them (0 otherwise).
  virtual std::uint64_t Settle(net::MessageHandler& sink, std::uint32_t seq,
                               std::size_t reports) = 0;
  // One entry per host slot, indexed by host id (empty for a silent host).
  virtual std::vector<Host::SweepResult> Sweep(std::uint32_t seq) = 0;
};

// Hosts in this process on a SimNet, pumped by a SyncNetwork.
class LocalFleet final : public Fleet {
 public:
  // Registers the hypervisor's endpoint (kHypervisorId, delivering to
  // `hypervisor`) and then one host per id in [0, n), in that order: the
  // SyncNetwork sweeps endpoints in registration order.
  LocalFleet(net::SimNet& net, net::SyncNetwork& sync,
             net::MessageHandler& hypervisor, const HostConfig& proto,
             std::size_t n, const crypto::SchnorrGroup& group, Bytes ca_pk);

  bool Boot(std::uint32_t id, BootMaterial boot) override;
  void Halt(std::uint32_t id) override;
  std::vector<HostStatus> Survey() override;
  // Pumps to quiescence; the SyncNetwork already delivers to the handler
  // registered at construction, so `sink` must be that handler.
  std::uint64_t Settle(net::MessageHandler& sink, std::uint32_t seq,
                       std::size_t reports) override;
  std::vector<Host::SweepResult> Sweep(std::uint32_t seq) override;

  net::Transport& hypervisor_endpoint() { return *hypervisor_ep_; }
  Host& host(std::size_t i) { return *hosts_.at(i); }
  // Physical slot count: after a shrinking reshare the retired slots stay
  // parked (offline, wiped) for reuse by a later grow.
  std::size_t slots() const { return hosts_.size(); }
  // Creates slots up to `n` with `params` (a growing reshare).
  void Grow(std::size_t n, const pss::Params& params);

 private:
  net::SimNet& net_;
  net::SyncNetwork& sync_;
  net::SimEndpoint* hypervisor_ep_ = nullptr;
  HostConfig proto_;
  const crypto::SchnorrGroup& group_;
  Bytes ca_pk_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace pisces
