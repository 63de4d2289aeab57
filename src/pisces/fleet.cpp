#include "pisces/fleet.h"

#include <algorithm>

namespace pisces {

namespace {

void PutPhase(ByteWriter& w, const PhaseMetrics& m) {
  w.U64(m.cpu_ns);
  w.U64(m.wall_ns);
  w.U64(m.bytes_sent);
  w.U64(m.msgs_sent);
}

PhaseMetrics GetPhase(ByteReader& r) {
  PhaseMetrics m;
  m.cpu_ns = r.U64();
  m.wall_ns = r.U64();
  m.bytes_sent = r.U64();
  m.msgs_sent = r.U64();
  return m;
}

void PutIds(ByteWriter& w, const std::vector<std::uint32_t>& ids) {
  w.U32(static_cast<std::uint32_t>(ids.size()));
  for (std::uint32_t id : ids) w.U32(id);
}

std::vector<std::uint32_t> GetIds(ByteReader& r) {
  std::vector<std::uint32_t> ids(r.U32());
  for (std::uint32_t& id : ids) id = r.U32();
  return ids;
}

}  // namespace

Bytes SerializeSweep(const field::FpCtx& ctx, const Host::SweepResult& s) {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(s.refresh.size()));
  for (const Host::StuckRefresh& x : s.refresh) {
    w.U64(x.file_id);
    w.U32(x.epoch);
    PutIds(w, x.missing_dealers);
  }
  w.U32(static_cast<std::uint32_t>(s.recovery.size()));
  for (const Host::StuckRecovery& x : s.recovery) {
    w.U64(x.file_id);
    w.U32(x.epoch);
    w.U32(x.target);
    PutIds(w, x.missing_dealers);
    PutIds(w, x.missing_senders);
  }
  w.U32(static_cast<std::uint32_t>(s.failed.size()));
  for (const auto& [file, fr] : s.failed) {
    w.U64(file);
    PutIds(w, fr.participants);
    w.U32(static_cast<std::uint32_t>(fr.deals_by_dealer.size()));
    for (std::size_t i = 0; i < fr.deals_by_dealer.size(); ++i) {
      w.U8(i < fr.deal_seen.size() && fr.deal_seen[i] ? 1 : 0);
      w.Blob(field::SerializeElems(ctx, fr.deals_by_dealer[i]));
    }
  }
  w.U8(s.active ? 1 : 0);
  w.U32(static_cast<std::uint32_t>(s.aborted.size()));
  for (const std::string& a : s.aborted) {
    w.Blob({reinterpret_cast<const std::uint8_t*>(a.data()), a.size()});
  }
  return w.Take();
}

Host::SweepResult DeserializeSweep(const field::FpCtx& ctx,
                                   std::span<const std::uint8_t> data) {
  ByteReader r(data);
  Host::SweepResult s;
  s.refresh.resize(r.U32());
  for (Host::StuckRefresh& x : s.refresh) {
    x.file_id = r.U64();
    x.epoch = r.U32();
    x.missing_dealers = GetIds(r);
  }
  s.recovery.resize(r.U32());
  for (Host::StuckRecovery& x : s.recovery) {
    x.file_id = r.U64();
    x.epoch = r.U32();
    x.target = r.U32();
    x.missing_dealers = GetIds(r);
    x.missing_senders = GetIds(r);
  }
  const std::uint32_t nf = r.U32();
  for (std::uint32_t f = 0; f < nf; ++f) {
    Host::FailedRefresh& fr = s.failed[r.U64()];
    fr.participants = GetIds(r);
    const std::uint32_t nd = r.U32();
    for (std::uint32_t i = 0; i < nd; ++i) {
      fr.deal_seen.push_back(r.U8() != 0);
      fr.deals_by_dealer.push_back(field::DeserializeElems(ctx, r.Blob()));
    }
  }
  s.active = r.U8() != 0;
  s.aborted.resize(r.U32());
  for (std::string& a : s.aborted) {
    const auto b = r.Blob();
    a.assign(b.begin(), b.end());
  }
  Require(r.AtEnd(), "SweepResult: trailing bytes");
  return s;
}

Bytes BootMaterial::Serialize() const {
  ByteWriter w;
  w.Blob(ca_pk);
  w.U32(epoch);
  w.Blob(cert.Serialize());
  w.Blob(sk);
  PutIds(w, peers);
  w.U32(static_cast<std::uint32_t>(directory.size()));
  for (const auto& c : directory) w.Blob(c.Serialize());
  return w.Take();
}

BootMaterial BootMaterial::Deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  BootMaterial b;
  const auto ca_pk = r.Blob();
  b.ca_pk.assign(ca_pk.begin(), ca_pk.end());
  b.epoch = r.U32();
  b.cert = crypto::HostCert::Deserialize(r.Blob());
  const auto sk = r.Blob();
  b.sk.assign(sk.begin(), sk.end());
  b.peers = GetIds(r);
  const std::uint32_t nc = r.U32();
  b.directory.reserve(nc);
  for (std::uint32_t i = 0; i < nc; ++i) {
    b.directory.push_back(crypto::HostCert::Deserialize(r.Blob()));
  }
  Require(r.AtEnd(), "BootMaterial: trailing bytes");
  return b;
}

const FileMeta* HostStatus::Meta(std::uint64_t file_id) const {
  for (const FileMeta& m : files) {
    if (m.file_id == file_id) return &m;
  }
  return nullptr;
}

Bytes HostStatus::Serialize() const {
  ByteWriter w;
  w.U8(online ? 1 : 0);
  w.U32(epoch);
  w.U32(static_cast<std::uint32_t>(files.size()));
  for (const FileMeta& m : files) w.Blob(m.Serialize());
  for (const PhaseMetrics* p :
       {&metrics.rerandomize, &metrics.recover, &metrics.serve}) {
    PutPhase(w, *p);
  }
  w.U64(metrics.faults.deals_excluded);
  w.U64(metrics.faults.retries);
  w.U64(metrics.faults.timeouts_fired);
  return w.Take();
}

HostStatus HostStatus::Deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  HostStatus s;
  s.online = r.U8() != 0;
  s.epoch = r.U32();
  const std::uint32_t nf = r.U32();
  for (std::uint32_t i = 0; i < nf; ++i) {
    s.files.push_back(FileMeta::Deserialize(r.Blob()));
  }
  s.metrics.rerandomize = GetPhase(r);
  s.metrics.recover = GetPhase(r);
  s.metrics.serve = GetPhase(r);
  s.metrics.faults.deals_excluded = r.U64();
  s.metrics.faults.retries = r.U64();
  s.metrics.faults.timeouts_fired = r.U64();
  Require(r.AtEnd(), "HostStatus: trailing bytes");
  return s;
}

LocalFleet::LocalFleet(net::SimNet& net, net::SyncNetwork& sync,
                       net::MessageHandler& hypervisor, const HostConfig& proto,
                       std::size_t n, const crypto::SchnorrGroup& group,
                       Bytes ca_pk)
    : net_(net), sync_(sync), proto_(proto), group_(group),
      ca_pk_(std::move(ca_pk)) {
  hypervisor_ep_ = net_.AddEndpoint(net::kHypervisorId);
  sync_.Register(net::kHypervisorId, hypervisor_ep_, &hypervisor);
  Grow(n, proto_.params);
}

void LocalFleet::Grow(std::size_t n, const pss::Params& params) {
  for (auto i = static_cast<std::uint32_t>(hosts_.size()); i < n; ++i) {
    net::SimEndpoint* ep = net_.AddEndpoint(i);
    HostConfig hc = proto_;
    hc.id = i;
    hc.params = params;
    hosts_.push_back(std::make_unique<Host>(hc, *ep, group_, ca_pk_));
    sync_.Register(i, ep, hosts_.back().get());
  }
}

bool LocalFleet::Boot(std::uint32_t id, BootMaterial boot) {
  net_.SetOffline(id, false);
  Host& h = *hosts_.at(id);
  h.Boot(boot.epoch, std::move(boot.cert), std::move(boot.sk), boot.peers);
  // Provision the public-key directory onto the fresh image (a rebooted host
  // lost everything).
  for (const crypto::HostCert& cert : boot.directory) {
    if (cert.host_id != id) h.InstallPeerCert(cert);
  }
  return true;
}

void LocalFleet::Halt(std::uint32_t id) {
  hosts_.at(id)->Shutdown();
  net_.SetOffline(id, true);
}

std::vector<HostStatus> LocalFleet::Survey() {
  std::vector<HostStatus> out(hosts_.size());
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    const Host& h = *hosts_[i];
    HostStatus& s = out[i];
    s.online = h.online();
    s.reachable = s.online && !net_.IsOffline(i);
    s.epoch = h.epoch();
    for (std::uint64_t f : h.store().FileIds()) {
      s.files.push_back(h.store().MetaOf(f));
    }
    s.metrics = h.metrics();
  }
  return out;
}

std::uint64_t LocalFleet::Settle(net::MessageHandler&, std::uint32_t,
                                 std::size_t) {
  return sync_.RunToQuiescence().sweeps;
}

std::vector<Host::SweepResult> LocalFleet::Sweep(std::uint32_t seq) {
  // Visit every host, not just those with active sessions: a host that
  // missed a start message has no session but buffers its peers' traffic as
  // pending, and those stale buffers must not survive into the next attempt.
  std::vector<Host::SweepResult> out;
  out.reserve(hosts_.size());
  for (auto& h : hosts_) out.push_back(h->Sweep(seq));
  return out;
}

}  // namespace pisces
