#include "pisces/hypervisor.h"

#include <algorithm>

#include "common/log.h"
#include "math/poly.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pss/comm_efficient.h"

namespace pisces {

using field::FpElem;
using net::Message;
using net::MsgType;

namespace {

// Detection-side dispute counters (the matching action-side byz.* counters
// live in pisces/byzantine.cpp).
obs::Counter& DealersAttributed() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.dealers_attributed",
      "dealers attributed as corrupt from archived dealing columns");
  return c;
}
obs::Counter& SurvivorsSuspected() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.survivors_suspected",
      "survivors barred from recovery (accused by robust decode or "
      "repeatedly silent)");
  return c;
}

// Reshare migration counters (reshare.*): the no-reconstruction invariant is
// asserted against these plus the absence of kReconstructRequest wire bytes
// (net/net_obs.h) during a migration.
struct ReshareCounters {
  obs::Counter& migrations = obs::RegisterCounter(
      "reshare.migrations", "completed fleet migrations to a new group shape");
  obs::Counter& files = obs::RegisterCounter(
      "reshare.files", "files migrated to a new sharing without reconstruction");
  obs::Counter& contributions = obs::RegisterCounter(
      "reshare.contributions", "reshare sub-sharings received from contributors");
  obs::Counter& rejected = obs::RegisterCounter(
      "reshare.contributions_rejected",
      "reshare sub-sharings rejected by public verification");
  obs::Counter& withheld = obs::RegisterCounter(
      "reshare.contributions_withheld",
      "reshare sub-sharings withheld by silent contributors");
  obs::Counter& retries = obs::RegisterCounter(
      "reshare.retries", "per-file reshare rounds re-run with offenders excluded");
  obs::Counter& hosts_added = obs::RegisterCounter(
      "reshare.hosts_added", "fleet slots created or revived by a migration");
  obs::Counter& hosts_retired = obs::RegisterCounter(
      "reshare.hosts_retired", "fleet slots shut down by a shrink migration");
};

ReshareCounters& ReshareObs() {
  static ReshareCounters* c = new ReshareCounters();
  return *c;
}

HypervisorConfig Validated(HypervisorConfig cfg) {
  cfg.params.Validate();
  return cfg;
}

HostConfig HostProto(const HypervisorConfig& cfg) {
  HostConfig hc;
  hc.params = cfg.params;
  hc.ctx = cfg.ctx;
  hc.encrypt_links = cfg.encrypt_links;
  hc.rng_seed = cfg.seed;
  return hc;
}

// Files held by any booted host, ascending.
std::vector<std::uint64_t> AllFileIds(const std::vector<HostStatus>& view) {
  std::set<std::uint64_t> ids;
  for (const HostStatus& h : view) {
    if (!h.online) continue;
    for (const FileMeta& m : h.files) ids.insert(m.file_id);
  }
  return {ids.begin(), ids.end()};
}

// Hosts that are booted and reachable, ascending.
std::vector<std::uint32_t> ReachableHosts(const std::vector<HostStatus>& view) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    if (view[i].reachable) out.push_back(i);
  }
  return out;
}

HostMetrics TotalHostMetrics(const std::vector<HostStatus>& view) {
  HostMetrics total;
  for (const HostStatus& h : view) total.Add(h.metrics);
  return total;
}

// A restarted host process reports its counters from zero again.
std::uint64_t Delta(std::uint64_t before, std::uint64_t after) {
  return after > before ? after - before : 0;
}

// Adds the fleet's `phase` metric delta to `total` and its robustness
// counter deltas to `report`.
void AddMetricDelta(const HostMetrics& before, const HostMetrics& after,
                    PhaseMetrics HostMetrics::*phase, PhaseMetrics& total,
                    WindowReport& report) {
  const PhaseMetrics& b = before.*phase;
  const PhaseMetrics& a = after.*phase;
  total.cpu_ns += Delta(b.cpu_ns, a.cpu_ns);
  total.wall_ns += Delta(b.wall_ns, a.wall_ns);
  total.bytes_sent += Delta(b.bytes_sent, a.bytes_sent);
  total.msgs_sent += Delta(b.msgs_sent, a.msgs_sent);
  report.deals_excluded +=
      Delta(before.faults.deals_excluded, after.faults.deals_excluded);
  report.timeouts_fired +=
      Delta(before.faults.timeouts_fired, after.faults.timeouts_fired);
}

void AppendAborted(std::vector<Host::SweepResult>& swept,
                   std::vector<std::string>& sink) {
  for (Host::SweepResult& s : swept) {
    for (std::string& desc : s.aborted) sink.push_back(std::move(desc));
  }
}

}  // namespace

Hypervisor::Hypervisor(HypervisorConfig cfg, net::SimNet& net,
                       net::SyncNetwork& sync,
                       const crypto::SchnorrGroup& group)
    : cfg_(Validated(std::move(cfg))),
      rng_(cfg_.seed ^ 0x9D15CE5ULL),
      ca_(group, rng_),
      local_(std::make_unique<LocalFleet>(net, sync, *this, HostProto(cfg_),
                                          cfg_.params.n, group,
                                          ca_.public_key())),
      fleet_(*local_),
      endpoint_(local_->hypervisor_endpoint()) {
  Start();
}

Hypervisor::Hypervisor(HypervisorConfig cfg, Fleet& fleet,
                       net::Transport& endpoint,
                       const crypto::SchnorrGroup& group)
    : cfg_(Validated(std::move(cfg))),
      rng_(cfg_.seed ^ 0x9D15CE5ULL),
      ca_(group, rng_),
      fleet_(fleet),
      endpoint_(endpoint) {
  Start();
}

Hypervisor::~Hypervisor() = default;

void Hypervisor::Start() {
  const std::size_t n = cfg_.params.n;
  for (std::uint32_t i = 0; i < n; ++i) peer_ids_.push_back(i);
  schedule_ = MakeSchedule(cfg_.schedule, n, cfg_.params.r, cfg_.seed ^ 0x5C4ED);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!BootHost(i)) LogWarn() << "hypervisor: host " << i << " did not boot";
  }
  fleet_.Settle(*this, 0, 0);
}

bool Hypervisor::BootHost(std::uint32_t id) {
  ++boot_epoch_;
  auto [cert, sk] = ca_.IssueHostKey(id, boot_epoch_, rng_);
  directory_[id] = cert;
  BootMaterial boot;
  boot.ca_pk = ca_.public_key();
  boot.epoch = boot_epoch_;
  boot.cert = std::move(cert);
  boot.sk = std::move(sk);
  boot.peers = peer_ids_;
  for (const auto& [peer, peer_cert] : directory_) {
    boot.directory.push_back(peer_cert);
  }
  // The fresh image is trusted again: wipe its exclusion record.
  excluded_.erase(id);
  dealer_strikes_.erase(id);
  suspects_.erase(id);
  suspect_strikes_.erase(id);
  return fleet_.Boot(id, std::move(boot));
}

std::pair<crypto::HostCert, Bytes> Hypervisor::EnrollExternal(
    std::uint32_t id) {
  auto [cert, sk] = ca_.IssueHostKey(id, 0, rng_);
  directory_[id] = cert;
  if (std::find(peer_ids_.begin(), peer_ids_.end(), id) == peer_ids_.end()) {
    peer_ids_.push_back(id);
  }
  if (local_ != nullptr) {
    for (std::size_t i = 0; i < local_->slots(); ++i) {
      local_->host(i).InstallPeerCert(cert);
    }
  }
  return {cert, std::move(sk)};
}

std::set<std::uint32_t> Hypervisor::AttributeCorruptDealers(
    const std::map<std::uint64_t, std::vector<std::uint32_t>>& parts_by_file,
    std::vector<Host::SweepResult>& swept) {
  std::set<std::uint32_t> corrupt;
  const field::FpCtx& ctx = *cfg_.ctx;
  const pss::EvalPoints points(ctx, cfg_.params.n, cfg_.params.l);
  const std::size_t d = cfg_.params.degree();

  for (const auto& [file, parts] : parts_by_file) {
    // Every participant's archived dealing columns for this round.
    std::map<std::uint32_t, Host::FailedRefresh> archives;
    for (std::uint32_t id : parts) {
      auto it = swept[id].failed.find(file);
      if (it != swept[id].failed.end()) {
        archives.emplace(id, std::move(it->second));
      }
    }
    if (archives.empty()) continue;
    const std::vector<std::uint32_t>& dealers =
        archives.begin()->second.participants;

    // A dealer's column across holder evaluation points must be a
    // degree-<=d polynomial vanishing on every beta; an honest holder's
    // archive is its received value at its own alpha, so with >= d+2
    // independent points any fabricated dealing is caught.
    for (std::size_t i = 0; i < dealers.size(); ++i) {
      std::vector<FpElem> xs;
      std::vector<const std::vector<FpElem>*> cols;
      for (const auto& [holder, fr] : archives) {
        if (i < fr.deal_seen.size() && fr.deal_seen[i] &&
            !fr.deals_by_dealer[i].empty()) {
          xs.push_back(points.alpha(holder));
          cols.push_back(&fr.deals_by_dealer[i]);
        }
      }
      if (xs.size() < d + 2) continue;  // not enough evidence to judge
      math::PointChecker checker(ctx, xs, d);
      std::vector<std::vector<FpElem>> beta_w;
      beta_w.reserve(cfg_.params.l);
      for (std::size_t j = 0; j < cfg_.params.l; ++j) {
        beta_w.push_back(checker.WeightsAt(points.beta(j)));
      }
      const std::size_t groups = cols.front()->size();
      std::vector<FpElem> ys(xs.size(), ctx.Zero());
      bool bad = false;
      for (std::size_t g = 0; g < groups && !bad; ++g) {
        for (std::size_t k = 0; k < cols.size(); ++k) {
          if (g >= cols[k]->size()) { bad = true; break; }
          ys[k] = (*cols[k])[g];
        }
        if (bad) break;
        if (!checker.Consistent(ys)) {
          bad = true;
          break;
        }
        for (const auto& w : beta_w) {
          if (!ctx.IsZero(math::PointChecker::Apply(ctx, w, ys))) {
            bad = true;
            break;
          }
        }
      }
      if (bad && corrupt.insert(dealers[i]).second) {
        DealersAttributed().Add(1);
        obs::Span span(obs::SpanKind::kByzDetect, dealers[i], file);
      }
    }
  }
  return corrupt;
}

bool Hypervisor::RefreshAllFiles(WindowReport* report) {
  return RefreshFilesInternal(AllFileIds(fleet_.Survey()),
                              /*audit_catalog=*/true, report);
}

bool Hypervisor::RefreshFiles(std::span<const std::uint64_t> file_ids,
                              WindowReport* report) {
  // Subset refresh (the serving plane's batch scheduler): only the named
  // files are launched, and the fleet-wide loss audit is skipped -- a batch
  // of B files must not fail because a file in a LATER batch is degraded.
  return RefreshFilesInternal(
      std::vector<std::uint64_t>(file_ids.begin(), file_ids.end()),
      /*audit_catalog=*/false, report);
}

template <typename Key>
std::vector<std::uint32_t> Hypervisor::StrikeSilent(
    const std::map<Key, std::size_t>& wedged,
    const std::map<Key, std::map<std::uint32_t, std::size_t>>& missing_at,
    std::map<std::uint32_t, std::uint32_t>& strikes) {
  std::set<std::uint32_t> silent;
  for (const auto& [key, counts] : missing_at) {
    for (const auto& [id, cnt] : counts) {
      if (cnt * 2 > wedged.at(key)) silent.insert(id);
    }
  }
  std::vector<std::uint32_t> out;
  if (silent.empty()) return out;
  const std::vector<HostStatus> view = fleet_.Survey();
  for (std::uint32_t id : silent) {
    if (id < view.size() && !view[id].reachable) continue;  // crashed
    if (++strikes[id] >= 2) out.push_back(id);
  }
  return out;
}

bool Hypervisor::RefreshFilesInternal(std::vector<std::uint64_t> files,
                                      bool audit_catalog,
                                      WindowReport* report) {
  const HostMetrics before =
      report != nullptr ? TotalHostMetrics(fleet_.Survey()) : HostMetrics{};
  recent_failures_.clear();
  catalog_.insert(files.begin(), files.end());

  std::vector<std::string> fatal;  // non-retryable failures
  // A catalogued file that no booted host holds any more is lost data and
  // must fail the window loudly: an empty holder list looks exactly like
  // "nothing stored yet", and every later phase would succeed vacuously.
  if (audit_catalog) {
    for (std::uint64_t f : catalog_) {
      if (std::find(files.begin(), files.end(), f) == files.end()) {
        fatal.push_back("file " + std::to_string(f) +
                        " lost: no booted host holds a share");
      }
    }
  }
  if (files.empty() && fatal.empty()) return true;

  const std::size_t n = cfg_.params.n;
  const std::size_t max_attempts = cfg_.params.t + 2;

  std::vector<std::uint64_t> todo = files;
  // file -> hosts holding the post-refresh sharing.
  std::map<std::uint64_t, std::set<std::uint32_t>> fresh_for;
  std::vector<std::string> last_failures;  // diagnostics of the last attempt
  std::uint64_t sweeps = 0;

  for (std::size_t attempt = 0; !todo.empty() && attempt < max_attempts;
       ++attempt) {
    const std::vector<HostStatus> view = fleet_.Survey();
    std::vector<std::uint32_t> base;
    for (std::uint32_t id : ReachableHosts(view)) {
      if (excluded_.count(id) == 0) base.push_back(id);
    }
    if (n - base.size() > cfg_.params.t) {
      // Corruption bound exceeded: completing the round could hand control
      // of the sharing to the adversary, so the window aborts atomically.
      fatal.push_back("refresh aborted: " + std::to_string(n - base.size()) +
                      " dealers unavailable or excluded exceeds bound t=" +
                      std::to_string(cfg_.params.t));
      break;
    }
    if (attempt > 0 && report != nullptr) report->refresh_retries += 1;

    phase_reports_.clear();
    recent_failures_.clear();
    const std::uint32_t seq = ++op_seq_;
    // One span per refresh attempt over the still-pending files; the message
    // pump below runs every host's dealing/transform/verify under it.
    obs::Span session_span(obs::SpanKind::kRefreshSession, seq, todo.size());

    // Launch one session per pending file among the holders that are
    // reachable and not excluded.
    std::map<std::uint64_t, std::vector<std::uint32_t>> parts_by_file;
    std::vector<std::uint64_t> launched;
    std::size_t due = 0;  // phase reports: one per participant
    for (std::uint64_t f : todo) {
      std::vector<std::uint32_t> parts;
      for (std::uint32_t id : base) {
        if (view[id].Holds(f)) parts.push_back(id);
      }
      if (parts.size() <= cfg_.params.check_rows() ||
          parts.size() < cfg_.params.degree() + 1) {
        fatal.push_back("file " + std::to_string(f) +
                        ": not enough holders to rerandomize");
        continue;
      }
      ByteWriter w;
      w.U32(static_cast<std::uint32_t>(parts.size()));
      for (std::uint32_t id : parts) w.U32(id);
      const Bytes payload = w.Take();
      for (std::uint32_t id : parts) {
        Message m;
        m.from = net::kHypervisorId;
        m.to = id;
        m.type = MsgType::kStartRefresh;
        m.file_id = f;
        m.epoch = seq;
        m.payload = payload;
        endpoint_.Send(std::move(m));
      }
      due += parts.size();
      parts_by_file.emplace(f, std::move(parts));
      launched.push_back(f);
    }
    if (launched.empty()) {
      todo.clear();
      break;
    }
    sweeps += fleet_.Settle(*this, seq, due);

    // Classify each file's outcome from the phase reports of this round.
    std::map<std::uint64_t, std::set<std::uint32_t>> ok_by_file;
    for (const PhaseReport& pr : phase_reports_) {
      if (pr.kind != 0 || pr.seq != seq) continue;
      if (pr.ok) ok_by_file[pr.file].insert(pr.host);
    }
    // Bounded-delay timeout: the sweep snapshots wedged sessions (which
    // dealers never arrived) before aborting them fleet-wide.
    std::vector<Host::SweepResult> swept = fleet_.Sweep(seq);
    std::map<std::uint64_t, std::size_t> stuck_holders;
    std::map<std::uint64_t, std::map<std::uint32_t, std::size_t>> missing_at;
    for (std::uint32_t id : base) {
      for (const auto& stuck : swept[id].refresh) {
        stuck_holders[stuck.file_id] += 1;
        for (std::uint32_t dealer : stuck.missing_dealers) {
          missing_at[stuck.file_id][dealer] += 1;
        }
      }
    }
    AppendAborted(swept, recent_failures_);

    std::vector<std::uint64_t> next_todo;
    for (std::uint64_t f : launched) {
      const std::vector<std::uint32_t>& parts = parts_by_file[f];
      const std::set<std::uint32_t>& okset = ok_by_file[f];
      if (okset.size() == parts.size()) {
        fresh_for[f] = std::set<std::uint32_t>(parts.begin(), parts.end());
        continue;
      }
      if (!okset.empty()) {
        // Partial apply: the okset already committed the new sharing. A
        // re-run on this inconsistent base would corrupt the file for good,
        // so the remaining holders are marked stale and resynced through
        // recovery from the fresh quorum instead.
        fresh_for[f] = okset;
        continue;
      }
      next_todo.push_back(f);  // nobody applied: safe to retry
    }

    // Exclusion: provably corrupt dealers first, then repeat silent ones.
    for (std::uint32_t dealer : AttributeCorruptDealers(parts_by_file, swept)) {
      excluded_.insert(dealer);
      recent_failures_.push_back("dealer " + std::to_string(dealer) +
                                 " excluded: inconsistent dealing");
    }
    for (std::uint32_t dealer :
         StrikeSilent(stuck_holders, missing_at, dealer_strikes_)) {
      if (excluded_.insert(dealer).second) {
        recent_failures_.push_back("dealer " + std::to_string(dealer) +
                                   " excluded: dealings repeatedly missing");
      }
    }
    last_failures = recent_failures_;
    todo = std::move(next_todo);
  }

  bool ok = todo.empty() && fatal.empty();

  // Staleness bookkeeping: holders outside a file's fresh set still carry
  // the pre-refresh polynomial and must not serve as recovery survivors.
  const std::vector<HostStatus> view = fleet_.Survey();
  std::set<std::uint32_t> stale_now;
  for (const auto& [f, fresh] : fresh_for) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (view[i].Holds(f) && fresh.count(i) == 0) stale_now.insert(i);
    }
  }
  stale_.insert(stale_now.begin(), stale_now.end());

  recent_failures_ = std::move(fatal);
  if (!ok) {
    recent_failures_.insert(recent_failures_.end(), last_failures.begin(),
                            last_failures.end());
  }

  // Resync reachable stale hosts now; crashed ones keep the mark until their
  // reboot-and-recover heals them.
  std::vector<std::uint32_t> resync;
  for (std::uint32_t id : stale_now) {
    if (view[id].reachable) resync.push_back(id);
  }
  if (!resync.empty() && !RunRecovery(std::move(resync), report)) ok = false;

  if (report != nullptr) {
    report->sweeps_refresh += sweeps;
    report->files_refreshed += files.size();
    AddMetricDelta(before, TotalHostMetrics(fleet_.Survey()),
                   &HostMetrics::rerandomize, report->rerandomize_total,
                   *report);
    report->failures.insert(report->failures.end(), recent_failures_.begin(),
                            recent_failures_.end());
    report->ok = report->ok && ok;
  }
  return ok;
}

bool Hypervisor::RunRecovery(std::vector<std::uint32_t> targets,
                             WindowReport* report) {
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  if (targets.empty()) return true;

  const std::size_t max_attempts = cfg_.params.t + 2;
  bool all_ok = true;
  std::vector<std::string> failures;

  for (std::size_t pos = 0; pos < targets.size(); pos += cfg_.params.r) {
    const std::size_t end = std::min(pos + cfg_.params.r, targets.size());
    const std::vector<std::uint32_t> chunk(targets.begin() + pos,
                                           targets.begin() + end);
    bool chunk_ok = false;
    for (std::size_t attempt = 0; attempt < max_attempts && !chunk_ok;
         ++attempt) {
      if (attempt > 0 && report != nullptr) report->recovery_retries += 1;
      phase_reports_.clear();
      recent_failures_.clear();

      // Fresh survivors: reachable, consistent (not stale), and outside the
      // chunk being recovered. Excluded hosts are kept in a reserve pool:
      // exclusion distrusts their *dealing*, but a recovery contribution is
      // verified at the target (PointChecker consistency), so they may top
      // up a survivor set that would otherwise fall below quorum -- without
      // this, strike-exclusions plus stale hosts can starve recovery forever
      // and leave the fleet unable to heal after a partition.
      const std::vector<HostStatus> view = fleet_.Survey();
      std::vector<std::uint32_t> base;
      std::vector<std::uint32_t> reserve;
      for (std::uint32_t id : ReachableHosts(view)) {
        if (stale_.count(id) != 0) continue;
        // Suspects never serve as survivors -- not even reserve. Exclusion
        // distrusts a host's dealing (which the target re-verifies), but a
        // suspect's verified-at-target contribution is exactly what a robust
        // decode convicted, or it starved sessions by withholding.
        if (suspects_.count(id) != 0) continue;
        if (std::find(chunk.begin(), chunk.end(), id) != chunk.end()) continue;
        (excluded_.count(id) != 0 ? reserve : base).push_back(id);
      }

      const std::uint32_t seq = ++op_seq_;
      // One span per recovery attempt of this target chunk; the pump runs
      // every survivor/target session under it.
      obs::Span batch_span(obs::SpanKind::kRecoveryBatch, seq, chunk.size());
      std::vector<std::uint64_t> launched;
      bool quorum_fatal = false;
      const std::vector<std::uint64_t> stored = AllFileIds(view);
      catalog_.insert(stored.begin(), stored.end());
      for (std::uint64_t f : catalog_) {
        if (std::find(stored.begin(), stored.end(), f) == stored.end()) {
          // Catalogued file with no holder left: report the loss instead of
          // succeeding vacuously over an empty file list.
          recent_failures_.push_back("file " + std::to_string(f) +
                                     " lost: no booted host holds a share");
          quorum_fatal = true;
        }
      }
      for (std::uint64_t f : stored) {
        std::vector<std::uint32_t> survivors;
        for (std::uint32_t id : base) {
          if (view[id].Holds(f)) survivors.push_back(id);
        }
        const std::size_t quorum = std::max<std::size_t>(
            cfg_.params.check_rows() + 1, cfg_.params.degree() + 1);
        for (std::uint32_t id : reserve) {
          if (survivors.size() >= quorum) break;
          if (view[id].Holds(f)) survivors.push_back(id);
        }
        if (survivors.size() <= cfg_.params.check_rows() ||
            survivors.size() < cfg_.params.degree() + 1) {
          recent_failures_.push_back(
              "file " + std::to_string(f) +
              ": not enough fresh survivors for recovery");
          quorum_fatal = true;
          continue;
        }
        const FileMeta meta = *view[survivors.front()].Meta(f);
        // Reduced repair (cfg_.repair): with fallback kClassic only the
        // first attempt ships stripes; a failed attempt (corruption beyond
        // the reduced decode radius, or a wedged session) retries with full
        // masked vectors, byte-identical to the legacy format.
        const bool want_reduced =
            cfg_.repair.path == ReadPath::kStaircase &&
            (attempt == 0 || cfg_.repair.fallback == ReadFallback::kFail);
        std::size_t budget = 0;
        if (want_reduced) {
          budget = cfg_.repair.contacts != 0
                       ? std::min<std::size_t>(cfg_.repair.contacts,
                                               survivors.size())
                       : pss::DefaultRecoveryBudget(cfg_.params,
                                                    survivors.size());
          // A budget below degree+1 or covering every survivor is not a
          // reduction; fall back to the classic full-vector format.
          if (budget < cfg_.params.degree() + 1 || budget >= survivors.size())
            budget = 0;
        }
        Message proto;
        proto.from = net::kHypervisorId;
        proto.type = MsgType::kStartRecovery;
        proto.epoch = seq;
        proto.file_id = f;
        ByteWriter w;
        w.Blob(meta.Serialize());
        w.U32(static_cast<std::uint32_t>(chunk.size()));
        for (std::uint32_t id : chunk) w.U32(id);
        w.U32(static_cast<std::uint32_t>(survivors.size()));
        for (std::uint32_t id : survivors) w.U32(id);
        if (budget != 0) {
          // Optional trailing repair-mode section (Host::OnStartRecovery).
          w.U8(1);
          w.U32(static_cast<std::uint32_t>(budget));
        }
        proto.payload = w.Take();
        for (std::uint32_t id : survivors) {
          Message m = proto;
          m.to = id;
          endpoint_.Send(std::move(m));
        }
        for (std::uint32_t id : chunk) {
          Message m = proto;
          m.to = id;
          endpoint_.Send(std::move(m));
        }
        launched.push_back(f);
      }
      const std::uint64_t pumped =
          fleet_.Settle(*this, seq, launched.size() * chunk.size());
      if (report != nullptr) report->sweeps_recovery += pumped;

      bool bad = quorum_fatal;
      for (const PhaseReport& pr : phase_reports_) {
        if (pr.kind == 1 && pr.seq == seq && !pr.ok) bad = true;
      }
      const std::vector<HostStatus> after = fleet_.Survey();
      for (std::uint32_t id : chunk) {
        for (std::uint64_t f : launched) {
          if (!after[id].Holds(f)) {
            recent_failures_.push_back("host " + std::to_string(id) +
                                       " missing file after recovery");
            bad = true;
          }
        }
      }
      // Sessions still active at quiescence are wedged (bounded-delay
      // timeout). Judge only live sessions: stale pending buffers from a
      // previous attempt are cleaned by the sweep but say nothing about this
      // one. The sweep snapshots the wedged sessions before aborting them,
      // for the strike rule keyed by (file, target).
      std::vector<Host::SweepResult> swept = fleet_.Sweep(seq);
      std::map<std::pair<std::uint64_t, std::uint32_t>, std::size_t> stuck_cnt;
      std::map<std::pair<std::uint64_t, std::uint32_t>,
               std::map<std::uint32_t, std::size_t>>
          missing_at;
      for (const Host::SweepResult& s : swept) {
        if (s.active) bad = true;
        for (const auto& stuck : s.recovery) {
          const auto key = std::make_pair(stuck.file_id, stuck.target);
          stuck_cnt[key] += 1;
          for (std::uint32_t id : stuck.missing_dealers) missing_at[key][id]++;
          for (std::uint32_t id : stuck.missing_senders) missing_at[key][id]++;
        }
      }
      for (std::uint32_t id :
           StrikeSilent(stuck_cnt, missing_at, suspect_strikes_)) {
        if (suspects_.insert(id).second) {
          SurvivorsSuspected().Add(1);
          obs::Span span(obs::SpanKind::kByzDetect, id, seq);
          recent_failures_.push_back(
              "host " + std::to_string(id) +
              " suspected: recovery traffic repeatedly missing");
        }
      }
      AppendAborted(swept, recent_failures_);

      if (!bad) {
        chunk_ok = true;
        for (std::uint32_t id : chunk) stale_.erase(id);
      } else if (quorum_fatal) {
        // Deterministic shortage: retrying with the same survivor pool
        // cannot succeed.
        failures.insert(failures.end(), recent_failures_.begin(),
                        recent_failures_.end());
        break;
      } else if (attempt + 1 == max_attempts) {
        failures.insert(failures.end(), recent_failures_.begin(),
                        recent_failures_.end());
      }
    }
    if (!chunk_ok) all_ok = false;
  }
  recent_failures_ = std::move(failures);
  return all_ok;
}

bool Hypervisor::BatchSafeToReboot(std::span<const std::uint32_t> batch) {
  // Mirror RunRecovery's survivor selection: recovery toward the wiped batch
  // draws on reachable non-stale holders (excluded hosts included -- they
  // may serve as reserve survivors). If any file would fall below that
  // quorum the reboot is unsafe: an outage already degraded the fleet, and
  // wiping more hosts would destroy the last consistent copies.
  const std::vector<HostStatus> view = fleet_.Survey();
  const std::vector<std::uint32_t> reachable = ReachableHosts(view);
  for (std::uint64_t f : AllFileIds(view)) {
    std::size_t survivors = 0;
    for (std::uint32_t id : reachable) {
      if (stale_.count(id) != 0) continue;
      if (std::find(batch.begin(), batch.end(), id) != batch.end()) continue;
      if (view[id].Holds(f)) ++survivors;
    }
    if (survivors <= cfg_.params.check_rows() ||
        survivors < cfg_.params.degree() + 1) {
      return false;
    }
  }
  return true;
}

bool Hypervisor::RebootAndRecover(std::span<const std::uint32_t> batch,
                                  WindowReport* report) {
  const HostMetrics before =
      report != nullptr ? TotalHostMetrics(fleet_.Survey()) : HostMetrics{};
  recent_failures_.clear();

  // Secure disassociation: halt the batch. Until recovery completes the
  // rebooted stores are empty, so the batch is stale by definition.
  for (std::uint32_t id : batch) {
    fleet_.Halt(id);
    stale_.insert(id);
  }
  // Fresh keys + reintegration broadcast.
  std::vector<std::uint32_t> booted;
  std::vector<std::string> boot_failures;
  for (std::uint32_t id : batch) {
    if (BootHost(id)) {
      booted.push_back(id);
    } else {
      boot_failures.push_back("host " + std::to_string(id) + " did not boot");
    }
  }
  const std::uint64_t boot_sweeps = fleet_.Settle(*this, 0, 0);

  bool ok = RunRecovery(booted, report) && boot_failures.empty();
  recent_failures_.insert(recent_failures_.end(), boot_failures.begin(),
                          boot_failures.end());

  if (report != nullptr) {
    report->sweeps_recovery += boot_sweeps;
    report->reboots += booted.size();
    AddMetricDelta(before, TotalHostMetrics(fleet_.Survey()),
                   &HostMetrics::recover, report->recover_total, *report);
    report->failures.insert(report->failures.end(), recent_failures_.begin(),
                            recent_failures_.end());
    report->ok = report->ok && ok;
  }
  return ok;
}

WindowReport Hypervisor::RunUpdateWindow() {
  // Root trace span of the whole update window; every refresh session,
  // recovery batch, and host compute section below nests under it, and its
  // ordinal tags all contained events for the per-window flame summary.
  obs::Span window_span(obs::SpanKind::kWindow, window_);
  WindowReport report;
  RefreshAllFiles(&report);
  for (const auto& batch : schedule_->BatchesForWindow(window_)) {
    if (!BatchSafeToReboot(batch)) {
      // Proactivity yields to durability: skip this batch rather than wipe
      // hosts a degraded fleet cannot re-provision. The schedule revisits
      // every host, so the reboot happens once recovery has healed enough
      // holders; until then the window is reported as incomplete.
      std::string line = "reboot deferred (recovery quorum at risk): hosts";
      for (std::uint32_t id : batch) line += " " + std::to_string(id);
      report.failures.push_back(std::move(line));
      report.reboots_deferred += batch.size();
      report.ok = false;
      continue;
    }
    RebootAndRecover(batch, &report);
  }
  ++window_;
  return report;
}

bool Hypervisor::Reshare(const pss::Params& to, ReshareReport* report) {
  to.Validate();
  Require(to.l == cfg_.params.l,
          "Hypervisor::Reshare: packing must match (re-pack via the codec)");
  Require(to.field_bits == cfg_.params.field_bits,
          "Hypervisor::Reshare: field must match");
  const pss::Params from = cfg_.params;
  ReshareReport local;
  ReshareReport& rep = report != nullptr ? *report : local;
  if (local_ == nullptr) {
    rep.failures.push_back(
        "reshare: runs on in-process fleets only (no wire control plane for "
        "contributions or re-provisioning)");
    rep.ok = false;
    return false;
  }
  obs::Span span(obs::SpanKind::kReshare, window_, to.n);

  const pss::PackedShamir& from_scheme = local_->host(0).shamir();
  pss::PackedShamir to_scheme(cfg_.ctx, to);
  const std::size_t d_old = from.degree();

  // Phase 1: per file, gather d_old+1 publicly verified contributions and
  // sum them into the new sharing. Nothing in the fleet mutates until every
  // file has a complete new sharing, so a failed migration leaves the old
  // group serving untouched.
  const std::vector<HostStatus> view = fleet_.Survey();
  const std::vector<std::uint64_t> files = AllFileIds(view);
  for (std::uint64_t id : catalog_) {
    if (std::find(files.begin(), files.end(), id) == files.end()) {
      rep.failures.push_back("reshare: file " + std::to_string(id) +
                             " lost before migration (no online holder)");
      rep.ok = false;
    }
  }
  if (!rep.ok) return false;

  std::map<std::uint64_t, std::vector<std::vector<FpElem>>> new_shares;
  std::map<std::uint64_t, FileMeta> metas;
  const std::size_t max_attempts = from.t + 2;
  for (std::uint64_t file : files) {
    const FileMeta* meta = nullptr;
    for (const HostStatus& h : view) {
      if (h.online && (meta = h.Meta(file)) != nullptr) break;
    }
    if (meta == nullptr) {
      rep.failures.push_back("reshare: file " + std::to_string(file) +
                             " has no readable meta");
      rep.ok = false;
      continue;
    }
    bool migrated = false;
    for (std::size_t attempt = 0; attempt < max_attempts && !migrated;
         ++attempt) {
      obs::Span round(obs::SpanKind::kReshareFile, file, attempt);
      // Contributors: fresh (non-stale), non-excluded holders of the current
      // sharing, ascending -- deterministic given the exclusion state.
      std::vector<std::uint32_t> holders;
      for (std::uint32_t i : ReachableHosts(view)) {
        if (excluded_.count(i) != 0 || stale_.count(i) != 0) continue;
        if (view[i].Holds(file)) holders.push_back(i);
      }
      if (holders.size() < d_old + 1) break;
      holders.resize(d_old + 1);
      pss::ResharePublic pub =
          pss::MakeResharePublic(from_scheme, to_scheme, holders);

      std::vector<std::vector<FpElem>> acc;
      bool round_ok = true;
      for (std::size_t ordinal = 0; ordinal < holders.size(); ++ordinal) {
        const std::uint32_t c = holders[ordinal];
        auto contribution = local_->host(c).ComputeReshare(file, pub, ordinal);
        rep.contributions += 1;
        ReshareObs().contributions.Add(1);
        if (!contribution.has_value()) {
          // Silent contributor: same two-strike rule as refresh dealers.
          rep.contributions_withheld += 1;
          ReshareObs().withheld.Add(1);
          if (++dealer_strikes_[c] >= 2) {
            excluded_.insert(c);
            recent_failures_.push_back("host " + std::to_string(c) +
                                       " excluded: silent reshare contributor");
          }
          round_ok = false;
          continue;
        }
        if (!pss::VerifyReshareContribution(pub, ordinal, *contribution)) {
          // Provably corrupt sub-sharing: exclude immediately, like a dealer
          // whose archived dealing column fails attribution.
          rep.contributions_rejected += 1;
          ReshareObs().rejected.Add(1);
          obs::Span detect(obs::SpanKind::kByzDetect, c, file);
          excluded_.insert(c);
          recent_failures_.push_back(
              "host " + std::to_string(c) +
              " excluded: corrupt reshare contribution (file " +
              std::to_string(file) + ")");
          round_ok = false;
          continue;
        }
        if (round_ok) pss::AccumulateReshare(*cfg_.ctx, acc, *contribution);
      }
      if (!round_ok) {
        rep.retries += 1;
        ReshareObs().retries.Add(1);
        continue;
      }
      new_shares[file] = std::move(acc);
      metas[file] = *meta;
      migrated = true;
    }
    if (!migrated) {
      rep.failures.push_back("reshare: file " + std::to_string(file) +
                             " could not gather " + std::to_string(d_old + 1) +
                             " verified contributions");
      rep.ok = false;
    }
  }
  if (!rep.ok) return false;

  // Phase 2: reshape the fleet. Surviving slots wipe-and-adopt the new
  // scheme; grown slots boot fresh (reviving parked slots from an earlier
  // shrink); every slot < n' that is offline -- crashed, parked, or spot-
  // killed -- is re-provisioned with a fresh boot. Shrunk slots shut down
  // and park for a later grow.
  const std::size_t n_old = from.n;
  cfg_.params = to;
  for (auto i = static_cast<std::uint32_t>(local_->slots()); i < to.n; ++i) {
    peer_ids_.push_back(i);
  }
  local_->Grow(to.n, to);
  const std::vector<HostStatus> now = fleet_.Survey();
  for (std::uint32_t i = 0; i < to.n; ++i) {
    local_->host(i).AdoptParams(to);
    if (!now[i].reachable) {
      BootHost(i);
      rep.hosts_added += 1;
      ReshareObs().hosts_added.Add(1);
    }
  }
  for (std::uint32_t i = to.n; i < n_old && i < now.size(); ++i) {
    if (!now[i].online) continue;
    fleet_.Halt(i);
    rep.hosts_retired += 1;
    ReshareObs().hosts_retired.Add(1);
  }
  schedule_ = MakeSchedule(cfg_.schedule, to.n, to.r, cfg_.seed ^ 0x5C4ED);
  // Every slot is about to receive the fresh sharing: nobody is stale.
  stale_.clear();
  fleet_.Settle(*this, 0, 0);  // deliver the boot cert broadcasts

  // Phase 3: install the new sharings (privileged re-provisioning, the same
  // control channel BootHost uses).
  for (const auto& [file, shares] : new_shares) {
    for (std::uint32_t rho = 0; rho < to.n; ++rho) {
      local_->host(rho).InstallShares(metas.at(file), shares[rho]);
    }
    rep.files += 1;
    ReshareObs().files.Add(1);
  }
  ReshareObs().migrations.Add(1);
  return rep.ok;
}

void Hypervisor::HandleMessage(const Message& msg) {
  if (msg.type != MsgType::kPhaseDone) {
    LogWarn() << "hypervisor: unexpected " << msg.Describe();
    return;
  }
  const bool ok = !msg.payload.empty() && msg.payload[0] == 1;
  phase_reports_.push_back({msg.from, msg.row, msg.file_id, msg.epoch, ok});
  // Recovery targets append the survivor ids their robust decode convicted
  // of serving wrong masked shares (Host::ReportPhaseDone); honest reports
  // keep the legacy one-byte payload. An accusation comes from one (possibly
  // lying) host, so its effect is bounded: the suspect only loses its
  // survivor role until its next reboot re-establishes trust.
  if (msg.row == 1 && msg.payload.size() > 1) {
    try {
      ByteReader r(msg.payload);
      r.U8();  // ok byte, already consumed above
      const std::uint32_t count = r.U32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t id = r.U32();
        if (id >= Slots() || id == msg.from) continue;
        if (suspects_.insert(id).second) {
          SurvivorsSuspected().Add(1);
          obs::Span span(obs::SpanKind::kByzDetect, id, msg.from);
          recent_failures_.push_back(
              "host " + std::to_string(id) +
              " suspected: wrong masked shares (accused by target " +
              std::to_string(msg.from) + ")");
        }
      }
    } catch (const ParseError&) {
      LogWarn() << "hypervisor: malformed accusation list from host "
                << msg.from;
    }
  }
  if (!ok) {
    ++failures_seen_;
    recent_failures_.push_back("host " + std::to_string(msg.from) +
                               " reported failure (kind=" +
                               std::to_string(msg.row) +
                               ", file=" + std::to_string(msg.file_id) + ")");
  }
}

}  // namespace pisces
