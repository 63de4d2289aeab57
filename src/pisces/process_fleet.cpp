#include "pisces/process_fleet.h"

#include <algorithm>

#include "common/clock.h"
#include "common/log.h"
#include "field/primes.h"
#include "obs/registry.h"

namespace pisces {

namespace {

// How long a settle with no reports due lets boot-time cert broadcasts land
// before recovery traffic sealed against the fresh certs starts.
constexpr std::uint64_t kCertSettleMs = 300;
// Longest a wait blocks before ticking again.
constexpr int kSliceMs = 2;

obs::Counter& DeadlineExpiries() {
  static obs::Counter& c = obs::RegisterCounter(
      "net.deadline_expiries",
      "bounded-delay RPC deadlines that fired at the hypervisor");
  return c;
}

std::uint64_t NowMs() { return MonotonicNanos() / 1'000'000; }

}  // namespace

HypervisorConfig HypervisorConfigFor(const MpConfig& cfg) {
  HypervisorConfig hc;
  hc.params = cfg.ToParams();
  hc.ctx = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(cfg.field_bits));
  hc.encrypt_links = cfg.encrypt;
  hc.seed = cfg.seed;
  return hc;
}

void AnnounceCert(net::Transport& ep, const crypto::HostCert& cert,
                  std::uint32_t hosts) {
  for (std::uint32_t id = 0; id < hosts; ++id) {
    net::Message m;
    m.from = ep.id();
    m.to = id;
    m.type = net::MsgType::kHostCert;
    m.payload = cert.Serialize();
    ep.Send(std::move(m));
  }
}

ProcessFleet::ProcessFleet(MpConfig cfg, net::AsyncTcpEndpoint& endpoint)
    : cfg_(std::move(cfg)),
      ep_(endpoint),
      ctx_(std::make_shared<const field::FpCtx>(
          field::StandardPrimeBe(cfg_.field_bits))),
      last_metrics_(cfg_.n) {
  cfg_.Validate();
  DeadlineExpiries();  // register before the first snapshot
}

std::vector<std::uint32_t> ProcessFleet::AllHosts() const {
  std::vector<std::uint32_t> ids(cfg_.n);
  for (std::uint32_t i = 0; i < cfg_.n; ++i) ids[i] = i;
  return ids;
}

std::optional<net::Message> ProcessFleet::Next(std::uint64_t deadline_ms) {
  for (;;) {
    if (tick_) tick_();
    const std::uint64_t now = NowMs();
    if (now >= deadline_ms) return std::nullopt;
    auto msg = ep_.ReceiveWait(
        static_cast<int>(std::min<std::uint64_t>(kSliceMs, deadline_ms - now)));
    if (msg) return msg;
  }
}

std::map<std::uint32_t, Bytes> ProcessFleet::Ask(
    net::MsgType type, std::span<const std::uint32_t> to, std::uint32_t seq,
    const Bytes& payload) {
  const std::uint32_t token = next_token_++;
  for (std::uint32_t id : to) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = id;
    m.type = type;
    m.row = token;
    m.epoch = seq;
    m.payload = payload;
    ep_.Send(std::move(m));
  }
  std::map<std::uint32_t, Bytes> answers;
  const std::uint64_t deadline = NowMs() + cfg_.deadline_ms;
  while (answers.size() < to.size()) {
    auto msg = Next(deadline);
    if (!msg) {
      DeadlineExpiries().Add();
      break;
    }
    if (msg->type == net::MsgType::kPhaseDone) {
      stash_.push_back(std::move(*msg));
    } else if (msg->type == net::MsgType::kStatusReport && msg->row == token &&
               std::find(to.begin(), to.end(), msg->from) != to.end()) {
      answers[msg->from] = std::move(msg->payload);
    }  // else: a late answer to an earlier request
  }
  return answers;
}

bool ProcessFleet::Boot(std::uint32_t id, BootMaterial boot) {
  const std::uint32_t epoch = boot.epoch;
  const std::uint32_t ids[] = {id};
  auto answers = Ask(net::MsgType::kBootHost, ids, 0, boot.Serialize());
  if (answers.empty()) return false;
  try {
    const HostStatus s = HostStatus::Deserialize(answers.begin()->second);
    return s.online && s.epoch == epoch;
  } catch (const ParseError&) {
    return false;
  }
}

void ProcessFleet::Halt(std::uint32_t id) {
  // A dead process cannot ack; its restart comes back wiped anyway.
  const std::uint32_t ids[] = {id};
  Ask(net::MsgType::kHaltHost, ids);
}

std::vector<HostStatus> ProcessFleet::Survey() {
  const std::vector<std::uint32_t> all = AllHosts();
  auto answers = Ask(net::MsgType::kStatusRequest, all);
  std::vector<HostStatus> out(cfg_.n);
  for (std::uint32_t id : all) {
    auto it = answers.find(id);
    if (it != answers.end()) {
      try {
        out[id] = HostStatus::Deserialize(it->second);
        out[id].reachable = out[id].online;
        last_metrics_[id] = out[id].metrics;
        continue;
      } catch (const ParseError&) {
        LogWarn() << "hypervisor: malformed status from host " << id;
      }
    }
    out[id].metrics = last_metrics_[id];  // silent: unreachable
  }
  return out;
}

std::uint64_t ProcessFleet::Settle(net::MessageHandler& sink,
                                   std::uint32_t seq, std::size_t reports) {
  if (reports > 0 && hook_) {
    auto hook = std::move(hook_);
    hook_ = nullptr;
    hook();
  }
  std::size_t seen = 0;
  auto deliver = [&](const net::Message& m) {
    sink.HandleMessage(m);
    if (m.epoch == seq) ++seen;
  };
  for (const net::Message& m : stash_) deliver(m);
  stash_.clear();
  const std::uint64_t deadline =
      NowMs() + (reports > 0 ? cfg_.deadline_ms : kCertSettleMs);
  while (reports == 0 || seen < reports) {
    auto msg = Next(deadline);
    if (!msg) {
      if (reports > 0) DeadlineExpiries().Add();
      break;
    }
    if (msg->type == net::MsgType::kPhaseDone) deliver(*msg);
  }
  return 0;
}

std::vector<Host::SweepResult> ProcessFleet::Sweep(std::uint32_t seq) {
  auto answers = Ask(net::MsgType::kAbortStuck, AllHosts(), seq);
  std::vector<Host::SweepResult> out(cfg_.n);
  for (auto& [id, payload] : answers) {
    try {
      out[id] = DeserializeSweep(*ctx_, payload);
    } catch (const ParseError&) {
      LogWarn() << "hypervisor: malformed sweep from host " << id;
    }
  }
  return out;
}

}  // namespace pisces
