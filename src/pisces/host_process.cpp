#include "pisces/host_process.h"

#include "common/error.h"
#include "common/log.h"
#include "field/primes.h"

namespace pisces {

// ---- HostProcess -----------------------------------------------------------

HostProcess::HostProcess(MpConfig cfg, std::uint32_t id)
    : cfg_(std::move(cfg)), id_(id) {
  cfg_.Validate();
  Require(id_ < cfg_.n, "HostProcess: host id out of range");
  ctx_ = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(cfg_.field_bits));

  net::AsyncTcpOptions topts;
  topts.id = id_;
  topts.listen_port = cfg_.HostPort(id_);
  topts.seed = cfg_.seed ^ (0xA5A5u + id_);
  topts.heartbeat_interval_ms = cfg_.heartbeat_ms;
  endpoint_ = std::make_unique<net::AsyncTcpEndpoint>(topts);
  for (std::uint32_t j = 0; j < cfg_.n; ++j) {
    if (j != id_) endpoint_->AddPeer(j, cfg_.HostPort(j));
  }
  endpoint_->AddPeer(net::kHypervisorId, cfg_.HypervisorPort());
  endpoint_->AddPeer(net::kClientId, cfg_.ClientPort());
}

void HostProcess::Serve() {
  for (;;) {
    auto msg = endpoint_->ReceiveWait(50);
    if (msg) HandleMessage(*msg);
  }
}

void HostProcess::Drain() {
  while (auto msg = endpoint_->Receive()) HandleMessage(*msg);
}

void HostProcess::HandleMessage(const net::Message& msg) {
  try {
    switch (msg.type) {
      case net::MsgType::kBootHost:
        Require(msg.from == net::kHypervisorId,
                "BootHost: not from the hypervisor");
        OnBootHost(msg);
        return;
      case net::MsgType::kHaltHost:
        Require(msg.from == net::kHypervisorId,
                "HaltHost: not from the hypervisor");
        OnHaltHost(msg);
        return;
      case net::MsgType::kStatusRequest:
        Require(msg.from == net::kHypervisorId,
                "StatusRequest: not from the hypervisor");
        SendStatus(msg.row);
        return;
      case net::MsgType::kAbortStuck: {
        Require(msg.from == net::kHypervisorId,
                "AbortStuck: not from the hypervisor");
        Host::SweepResult swept;
        if (host_ != nullptr) swept = host_->Sweep(msg.epoch);
        for (const auto& what : swept.aborted) {
          LogWarn() << "hostd " << id_ << ": aborted stuck session: " << what;
        }
        Reply(msg.row, SerializeSweep(*ctx_, swept));
        return;
      }
      default:
        if (host_ != nullptr) host_->HandleMessage(msg);
        return;
    }
  } catch (const ParseError& e) {
    LogWarn() << "hostd " << id_ << ": dropping control message (" << e.what()
              << "): " << msg.Describe();
  } catch (const InvalidArgument& e) {
    LogWarn() << "hostd " << id_ << ": rejecting control message (" << e.what()
              << "): " << msg.Describe();
  }
}

void HostProcess::OnBootHost(const net::Message& msg) {
  BootMaterial boot = BootMaterial::Deserialize(msg.payload);
  Require(boot.cert.host_id == id_, "BootHost: cert is for another host");
  if (ca_pk_.empty()) {
    // Trust-on-first-boot: the CA key rides the privileged management link.
    ca_pk_ = boot.ca_pk;
  } else {
    Require(ca_pk_ == boot.ca_pk, "BootHost: CA key changed across boots");
  }
  if (host_ == nullptr) {
    HostConfig hc;
    hc.id = id_;
    hc.params = cfg_.ToParams();
    hc.ctx = ctx_;
    hc.encrypt_links = cfg_.encrypt;
    hc.rng_seed = cfg_.seed + 7 + id_;
    host_ = std::make_unique<Host>(hc, *endpoint_,
                                   crypto::SchnorrGroup::Default(), ca_pk_);
  }
  if (host_->online()) host_->Shutdown();  // re-boot = disassociate first
  host_->Boot(boot.epoch, boot.cert, std::move(boot.sk), boot.peers);
  for (const auto& cert : boot.directory) {
    if (cert.host_id != id_) host_->InstallPeerCert(cert);
  }
  SendStatus(msg.row);  // boot ack
}

void HostProcess::OnHaltHost(const net::Message& msg) {
  if (host_ != nullptr && host_->online()) host_->Shutdown();
  SendStatus(msg.row);  // halt ack (reports online=false)
}

void HostProcess::Reply(std::uint32_t echo_row, Bytes payload) {
  net::Message m;
  m.from = id_;
  m.to = net::kHypervisorId;
  m.type = net::MsgType::kStatusReport;
  m.row = echo_row;
  m.payload = std::move(payload);
  endpoint_->Send(std::move(m));
}

void HostProcess::SendStatus(std::uint32_t echo_row) {
  HostStatus s;
  if (host_ != nullptr) {
    s.online = host_->online();
    s.epoch = host_->epoch();
    for (std::uint64_t f : host_->store().FileIds()) {
      s.files.push_back(host_->store().MetaOf(f));
    }
    s.metrics = host_->metrics();
  }
  Reply(echo_row, s.Serialize());
}

int RunHostProcess(const std::string& config_path, std::uint32_t id) {
  try {
    HostProcess hp(MpConfig::Load(config_path), id);
    hp.Serve();
    return 0;
  } catch (const Error& e) {
    LogError() << "hostd " << id << ": fatal: " << e.what();
    return 1;
  }
}

}  // namespace pisces
