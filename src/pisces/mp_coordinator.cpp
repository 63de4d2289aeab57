#include "pisces/mp_coordinator.h"

#include <algorithm>

#include "common/clock.h"
#include "common/error.h"
#include "common/log.h"
#include "obs/registry.h"

namespace pisces {

namespace {

obs::Counter& DeadlineExpiries() {
  static obs::Counter& c = obs::RegisterCounter(
      "net.deadline_expiries",
      "bounded-delay RPC deadlines that fired at the coordinator");
  return c;
}

std::uint64_t NowMs() { return MonotonicNanos() / 1'000'000; }

}  // namespace

MpCoordinator::MpCoordinator(MpConfig cfg, net::AsyncTcpEndpoint& endpoint)
    : cfg_(std::move(cfg)),
      ep_(endpoint),
      rng_(cfg_.seed ^ 0xC0FFEEull),
      ca_(crypto::SchnorrGroup::Default(), rng_) {
  cfg_.Validate();
  DeadlineExpiries();  // register before the first snapshot
}

Bytes MpCoordinator::ca_pk() const { return ca_.public_key(); }

std::pair<crypto::HostCert, Bytes> MpCoordinator::IssueClient() {
  auto issued = ca_.IssueHostKey(net::kClientId, 0, rng_);
  directory_[net::kClientId] = issued.first;
  return issued;
}

void MpCoordinator::RegisterUpload(const FileMeta& meta) {
  catalog_[meta.file_id] = meta;
}

std::uint32_t MpCoordinator::MinQuorum() const {
  const pss::Params p = cfg_.ToParams();
  return std::max<std::uint32_t>(2 * p.t + 1,
                                 static_cast<std::uint32_t>(p.degree()) + 1);
}

// ---- receive plumbing ------------------------------------------------------

void MpCoordinator::Absorb(const net::Message& msg) {
  if (msg.type == net::MsgType::kStatusReport && msg.row == 0) {
    // Unsolicited announcement: a fresh (crash-restarted) hostd asking for
    // boot material, or a periodic "still unbooted" retry. Queue it for the
    // next ProcessAnnouncements; do not recurse into a reboot mid-operation.
    try {
      const HostStatus s = HostStatus::Deserialize(msg.payload);
      if (!s.online && msg.from < cfg_.n) needs_boot_.insert(msg.from);
    } catch (const ParseError&) {
      LogWarn() << "coordinator: malformed announcement from " << msg.from;
    }
    return;
  }
  stash_.push_back(msg);
  if (stash_.size() > 10000) stash_.pop_front();  // stale completions
}

std::optional<net::Message> MpCoordinator::WaitMatch(
    const Pred& pred, std::uint64_t deadline_ms, bool count_expiry) {
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    if (pred(*it)) {
      net::Message m = std::move(*it);
      stash_.erase(it);
      return m;
    }
  }
  const std::uint64_t deadline = NowMs() + deadline_ms;
  for (;;) {
    if (tick_) tick_();
    const std::uint64_t now = NowMs();
    if (now >= deadline) break;
    const int slice = static_cast<int>(std::min<std::uint64_t>(
        50, deadline - now));
    auto msg = ep_.ReceiveWait(slice);
    if (!msg) continue;
    if (pred(*msg)) return msg;
    Absorb(*msg);
  }
  if (count_expiry) {
    ++deadline_expiries_;
    DeadlineExpiries().Add();
  }
  return std::nullopt;
}

std::optional<HostStatus> MpCoordinator::WaitAck(std::uint32_t from,
                                                 std::uint32_t token) {
  auto msg = WaitMatch(
      [from, token](const net::Message& m) {
        return m.type == net::MsgType::kStatusReport && m.from == from &&
               m.row == token;
      },
      cfg_.deadline_ms);
  if (!msg) return std::nullopt;
  try {
    return HostStatus::Deserialize(msg->payload);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

void MpCoordinator::Pump(int ms) {
  // An idle drain is not a missed RPC: no expiry accounting.
  WaitMatch([](const net::Message&) { return false; },
            static_cast<std::uint64_t>(ms), /*count_expiry=*/false);
}

// ---- lifecycle -------------------------------------------------------------

StatusCode MpCoordinator::SendBoot(std::uint32_t id, std::uint32_t epoch) {
  auto [cert, sk] = ca_.IssueHostKey(id, epoch, rng_);
  directory_[id] = cert;

  BootMaterial boot;
  boot.ca_pk = ca_.public_key();
  boot.epoch = epoch;
  boot.cert = cert;
  boot.sk = std::move(sk);
  for (std::uint32_t j = 0; j < cfg_.n; ++j) boot.peers.push_back(j);
  boot.peers.push_back(net::kClientId);
  for (const auto& [peer, c] : directory_) boot.directory.push_back(c);

  const std::uint32_t token = next_token_++;
  net::Message m;
  m.from = net::kHypervisorId;
  m.to = id;
  m.type = net::MsgType::kBootHost;
  m.row = token;
  m.payload = boot.Serialize();
  ep_.Send(std::move(m));

  auto ack = WaitAck(id, token);
  const StatusCode status = !ack ? StatusCode::kTimeout
                           : (!ack->online || ack->epoch != epoch)
                               ? StatusCode::kFailed
                               : StatusCode::kOk;
  if (status != StatusCode::kOk) {
    LogWarn() << "coordinator: boot of host " << id << ": "
              << StatusName(status);
    return status;
  }
  needs_boot_.erase(id);
  return StatusCode::kOk;
}

StatusCode MpCoordinator::HaltHost(std::uint32_t id) {
  const std::uint32_t token = next_token_++;
  net::Message m;
  m.from = net::kHypervisorId;
  m.to = id;
  m.type = net::MsgType::kHaltHost;
  m.row = token;
  ep_.Send(std::move(m));
  auto ack = WaitAck(id, token);
  if (!ack) return StatusCode::kTimeout;
  return ack->online ? StatusCode::kFailed : StatusCode::kOk;
}

bool MpCoordinator::BootAll() {
  // Fresh hostds announce themselves; wait for each, then boot it. Hosts may
  // announce in any order and repeatedly -- announcements are idempotent.
  const std::uint64_t deadline = NowMs() + cfg_.deadline_ms * cfg_.n;
  std::set<std::uint32_t> booted;
  while (booted.size() < cfg_.n && NowMs() < deadline) {
    std::uint32_t candidate = cfg_.n;
    for (std::uint32_t id : needs_boot_) {
      if (booted.count(id) == 0) {
        candidate = id;
        break;
      }
    }
    if (candidate == cfg_.n) {
      Pump(50);  // wait for more announcements
      continue;
    }
    if (SendBoot(candidate, next_epoch_) == StatusCode::kOk) {
      booted.insert(candidate);
    } else {
      // The failed boot may still have landed and broadcast its cert; the
      // retry needs a fresh epoch, because peers refuse a second, different
      // cert for an installed (host, epoch) (crypto::SupersedesInstalled).
      ++next_epoch_;
    }
  }
  if (booted.size() == cfg_.n) {
    ++next_epoch_;  // initial boots share one epoch unless one was retried
    return true;
  }
  return false;
}

bool MpCoordinator::BootHost(std::uint32_t id) {
  const StatusCode halt = HaltHost(id);
  if (halt != StatusCode::kOk) {
    // A freshly exec'd process has nothing to halt and still acks; a dead
    // process cannot ack at all -- the boot below will fail and be retried
    // after its supervisor restarts it.
    LogWarn() << "coordinator: halt of host " << id << ": "
              << StatusName(halt);
  }
  return SendBoot(id, next_epoch_++) == StatusCode::kOk;
}

std::optional<HostStatus> MpCoordinator::QueryStatus(std::uint32_t id) {
  const std::uint32_t token = next_token_++;
  net::Message m;
  m.from = net::kHypervisorId;
  m.to = id;
  m.type = net::MsgType::kStatusRequest;
  m.row = token;
  ep_.Send(std::move(m));
  return WaitAck(id, token);
}

void MpCoordinator::AbortStuck(const std::vector<std::uint32_t>& hosts) {
  // Fire-and-forget: retries use fresh (file, seq) keys, so a slow abort
  // cannot collide with the next attempt, and a dead host cannot ack anyway.
  for (std::uint32_t id : hosts) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = id;
    m.type = net::MsgType::kAbortStuck;
    m.row = next_token_++;
    ep_.Send(std::move(m));
  }
}

// ---- refresh ---------------------------------------------------------------

bool MpCoordinator::RefreshFile(std::uint64_t file_id,
                                const std::vector<std::uint32_t>& participants,
                                std::set<std::uint32_t>* applied,
                                std::set<std::uint32_t>* wedged) {
  const std::uint32_t seq = next_seq_++;
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(participants.size()));
  for (std::uint32_t id : participants) w.U32(id);
  const Bytes plist = w.Take();

  for (std::uint32_t id : participants) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = id;
    m.type = net::MsgType::kStartRefresh;
    m.file_id = file_id;
    m.epoch = seq;
    m.payload = plist;
    ep_.Send(std::move(m));
  }
  if (mid_window_hook_) {
    // Fire exactly once, mid-protocol: deals are in flight, nothing is done.
    auto hook = std::move(mid_window_hook_);
    mid_window_hook_ = nullptr;
    hook();
  }

  std::set<std::uint32_t> pending(participants.begin(), participants.end());
  bool all_ok = true;
  while (!pending.empty()) {
    auto msg = WaitMatch(
        [&](const net::Message& m) {
          return m.type == net::MsgType::kPhaseDone && m.row == 0 &&
                 m.file_id == file_id && m.epoch == seq &&
                 pending.count(m.from) != 0;
        },
        cfg_.deadline_ms);
    if (!msg) break;  // bounded delay fired; the rest are wedged or dead
    pending.erase(msg->from);
    const bool ok = !msg->payload.empty() && msg->payload[0] == 1;
    if (ok) {
      applied->insert(msg->from);
    } else {
      all_ok = false;  // verification failure: treated like a wedge (retry)
      wedged->insert(msg->from);
    }
  }
  for (std::uint32_t id : pending) wedged->insert(id);
  return all_ok && pending.empty();
}

MpWindowReport MpCoordinator::RunWindow() {
  MpWindowReport report;
  const std::uint64_t expiries_before = deadline_expiries_;
  report.hosts_rebooted += ProcessAnnouncements();

  // Dealer-exclusion style retry budget, mirroring the in-process
  // hypervisor: t+2 attempts always suffice against <= t crash faults.
  const std::uint32_t max_attempts = cfg_.t + 2;
  std::set<std::uint64_t> remaining;
  for (const auto& [fid, meta] : catalog_) remaining.insert(fid);

  for (std::uint32_t attempt = 0;
       attempt < max_attempts && !remaining.empty(); ++attempt) {
    ++report.refresh_attempts;

    // Who is alive and what do they hold? Hosts that fail the status RPC
    // are excluded from this attempt (bounded-delay synchrony: a silent
    // host is treated as crashed for the rest of the window).
    std::map<std::uint32_t, HostStatus> alive;
    for (std::uint32_t id = 0; id < cfg_.n; ++id) {
      if (needs_boot_.count(id) != 0) continue;
      auto s = QueryStatus(id);
      if (s && s->online) alive.emplace(id, std::move(*s));
    }

    std::set<std::uint64_t> still_remaining;
    for (std::uint64_t fid : remaining) {
      std::vector<std::uint32_t> holders;
      for (const auto& [id, s] : alive) {
        if (std::find(s.files.begin(), s.files.end(), fid) != s.files.end()) {
          holders.push_back(id);
        }
      }
      if (holders.size() < MinQuorum()) {
        LogWarn() << "coordinator: file " << fid << " has " << holders.size()
                  << " live holders, below quorum; deferring";
        still_remaining.insert(fid);
        continue;
      }

      std::set<std::uint32_t> applied, wedged;
      if (RefreshFile(fid, holders, &applied, &wedged)) continue;

      // The attempt failed. Clean the wedged slate, then repair a partial
      // apply: whichever side holds a quorum recovers the other side. Hosts
      // that already announced a crash-restart have no state to abort or
      // resync -- the reboot path below handles them.
      std::vector<std::uint32_t> wedged_list;
      for (std::uint32_t id : wedged) {
        if (needs_boot_.count(id) == 0) wedged_list.push_back(id);
      }
      AbortStuck(wedged_list);
      if (!applied.empty() && !wedged.empty()) {
        std::vector<std::uint32_t> applied_list(applied.begin(),
                                                applied.end());
        const bool fresh_majority = applied.size() >= MinQuorum();
        const auto& survivors =
            fresh_majority ? applied_list : wedged_list;
        const auto& stale = fresh_majority ? wedged_list : applied_list;
        if (survivors.size() >= MinQuorum()) {
          LogWarn() << "coordinator: file " << fid << " partially applied ("
                    << applied.size() << "/" << holders.size()
                    << "); resyncing the minority side";
          if (RecoverTargets(stale, survivors)) ++report.stale_resyncs;
        }
      }
      still_remaining.insert(fid);
    }
    remaining.swap(still_remaining);
    // Crash-restarted hosts announced during the attempt: reboot + recover
    // them now so the next attempt can include them again.
    report.hosts_rebooted += ProcessAnnouncements();
  }

  report.refresh_ok = remaining.empty();
  report.hosts_rebooted += ProcessAnnouncements();
  report.deadline_expiries =
      static_cast<std::uint32_t>(deadline_expiries_ - expiries_before);
  return report;
}

// ---- recovery --------------------------------------------------------------

bool MpCoordinator::RecoverTargets(const std::vector<std::uint32_t>& targets,
                                   const std::vector<std::uint32_t>& survivors) {
  if (targets.empty()) return true;
  if (survivors.size() < MinQuorum()) return false;
  bool all_ok = true;
  for (const auto& [fid, meta] : catalog_) {
    const std::uint32_t seq = next_seq_++;
    ByteWriter w;
    w.Blob(meta.Serialize());
    w.U32(static_cast<std::uint32_t>(targets.size()));
    for (std::uint32_t id : targets) w.U32(id);
    w.U32(static_cast<std::uint32_t>(survivors.size()));
    for (std::uint32_t id : survivors) w.U32(id);
    const Bytes payload = w.Take();

    std::set<std::uint32_t> recipients(survivors.begin(), survivors.end());
    recipients.insert(targets.begin(), targets.end());
    for (std::uint32_t id : recipients) {
      net::Message m;
      m.from = net::kHypervisorId;
      m.to = id;
      m.type = net::MsgType::kStartRecovery;
      m.file_id = fid;
      m.epoch = seq;
      m.payload = payload;
      ep_.Send(std::move(m));
    }

    std::set<std::uint32_t> pending(targets.begin(), targets.end());
    bool file_ok = true;
    while (!pending.empty()) {
      auto msg = WaitMatch(
          [&](const net::Message& m) {
            return m.type == net::MsgType::kPhaseDone && m.row == 1 &&
                   m.file_id == fid && m.epoch == seq &&
                   pending.count(m.from) != 0;
          },
          cfg_.deadline_ms);
      if (!msg) {
        file_ok = false;
        break;
      }
      pending.erase(msg->from);
      if (msg->payload.empty() || msg->payload[0] != 1) file_ok = false;
    }
    if (!file_ok) {
      std::vector<std::uint32_t> all(recipients.begin(), recipients.end());
      AbortStuck(all);
      all_ok = false;
    }
  }
  return all_ok;
}

bool MpCoordinator::RebootAndRecover(const std::vector<std::uint32_t>& targets) {
  if (targets.empty()) return true;
  // Reboot-rate bound: at most r hosts leave the share-holding set per batch,
  // and only while the rest still form a recovery quorum.
  for (std::size_t base = 0; base < targets.size(); base += cfg_.r) {
    std::vector<std::uint32_t> batch(
        targets.begin() + static_cast<long>(base),
        targets.begin() + static_cast<long>(
                              std::min(base + cfg_.r, targets.size())));

    bool booted = true;
    for (std::uint32_t id : batch) {
      if (!BootHost(id)) booted = false;
    }
    if (!booted) return false;
    // Let the fresh kHostCert broadcasts land before recovery traffic: a
    // survivor sealing masked shares against the old cert would only cost a
    // retry, but the pause makes the common path deterministic.
    Pump(300);

    if (catalog_.empty()) continue;
    // Survivors: live hosts outside this batch that hold the catalog files.
    std::vector<std::uint32_t> survivors;
    for (std::uint32_t id = 0; id < cfg_.n; ++id) {
      if (std::find(batch.begin(), batch.end(), id) != batch.end()) continue;
      if (needs_boot_.count(id) != 0) continue;
      auto s = QueryStatus(id);
      if (s && s->online && !s->files.empty()) survivors.push_back(id);
    }
    if (!RecoverTargets(batch, survivors)) return false;
  }
  return true;
}

std::uint32_t MpCoordinator::ProcessAnnouncements() {
  std::uint32_t processed = 0;
  // RebootAndRecover can itself surface new announcements; loop to a fixed
  // point but never revisit a host twice in one call (a host that keeps
  // crashing is its supervisor's problem, not an infinite loop here).
  std::set<std::uint32_t> visited;
  for (;;) {
    std::vector<std::uint32_t> todo;
    for (std::uint32_t id : needs_boot_) {
      if (visited.count(id) == 0) todo.push_back(id);
    }
    if (todo.empty()) return processed;
    visited.insert(todo.begin(), todo.end());
    if (RebootAndRecover(todo)) {
      processed += static_cast<std::uint32_t>(todo.size());
    }
  }
}

}  // namespace pisces
