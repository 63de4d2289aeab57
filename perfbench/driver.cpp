// Benchmark driver: runs one workload against the PiSCES library through its
// public API and prints the raw samples as one JSON object on the last line of
// stdout. perfbench/run.py builds this binary, runs it, turns the samples into
// the reported metrics (medians, percentiles) and prints the final result.
//
//   perfbench_driver --workload <window-bulk|window-small|serve-wire>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the end-to-end numbers with tracing off.
// With --trace 1 it alternates traced and untraced sections (the ratio is the
// tracing overhead), builds the per-layer ledger from the traced sections and
// runs the micro probes. README.md describes the workloads and the metrics.
#include <dirent.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "crypto/ca.h"
#include "crypto/channel.h"
#include "crypto/schnorr.h"
#include "field/fp.h"
#include "field/primes.h"
#include "ledger.h"
#include "net/async_tcp.h"
#include "net/message.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pisces/cluster.h"
#include "pisces/serving.h"
#include "pisces/serving_client.h"
#include "pss/packed_shamir.h"

namespace perfbench {
namespace {

using pisces::Bytes;
using pisces::MonotonicNanos;
using pisces::net::ServingOp;
using pisces::net::ServingStatus;

// ---------------------------------------------------------------- helpers --

std::uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double Secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ------------------------------------------------------------ speed probe --
//
// On the shared host this benchmark was tuned on, a vCPU runs multiply-heavy
// code at about half speed while another tenant's thread shares its physical
// core. That happens in phases of a few hundred milliseconds, on any vCPU,
// and the share of time spent in such phases drifts by tens of percent over
// minutes, so raw times of the same code moved by 20-35% between runs a few
// minutes apart. The probe measures the core's speed while the workload
// runs: a timer signal interrupts the measuring thread every kEveryNs and
// runs a fixed multiply kernel (benchmark code, not the program's). Every
// end-to-end time is then charged as the work's time at a fixed reference
// speed: its wall (or CPU) time minus the probes inside it, times the mean
// of (kReferenceNs / kernel time) over the probes that ended within
// kMarginNs of it. A change to the
// program's own cost moves these times in full; contention from other
// tenants, and the host's clock speed, move the kernel by about the same
// factor and cancel out. Traced runs do not arm the probe: their times stay
// raw.
namespace probe {

constexpr std::size_t kCap = 1 << 16;        // 5.5 minutes of probes
constexpr long kEveryNs = 5'000'000;         // 200 probes per second
// Speed is averaged over the probes within this margin of a piece of work,
// so that even an op shorter than kEveryNs gets four or five of them: a
// contended phase lasts hundreds of milliseconds, one probe's time is noisy.
constexpr std::uint64_t kMarginNs = 2 * kEveryNs;
constexpr int kKernelRounds = 100;
// The kernel's time on an uncontended core of the 2.1 GHz Xeon VM the
// benchmark was tuned on (26-30 us there): reported times are seconds at
// that speed.
constexpr double kReferenceNs = 30'000;

std::uint64_t g_end[kCap], g_dur[kCap];
std::atomic<std::size_t> g_count{0};
std::atomic<std::uint64_t> g_total_ns{0};  // time spent in probes so far
volatile std::uint64_t g_sink = 0;
timer_t g_timer;
bool g_armed = false;

std::uint64_t Now() {  // async-signal-safe
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// 16x16-limb schoolbook products: the shape of the program's 1024-bit
// Montgomery arithmetic, with no memory traffic beyond the stack.
void Kernel() {
  std::uint64_t a[16], b[16], r[32] = {};
  for (int i = 0; i < 16; ++i) {
    a[i] = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1);
    b[i] = a[i] ^ 0xD1B54A32D192ED03ull;
  }
  for (int it = 0; it < kKernelRounds; ++it) {
    for (int i = 0; i < 16; ++i) {
      unsigned __int128 c = 0;
      for (int j = 0; j < 16; ++j) {
        c += static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j];
        r[i + j] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      r[i + 16] = static_cast<std::uint64_t>(c);
    }
    a[it & 15] ^= r[7];
  }
  g_sink = g_sink + r[5];
}

void OnTick(int) {
  const int saved = errno;
  const std::uint64_t t0 = Now();
  Kernel();
  const std::uint64_t t1 = Now();
  const std::size_t k = g_count.load(std::memory_order_relaxed);
  if (k < kCap) {
    g_end[k] = t1;
    g_dur[k] = t1 - t0;
    g_count.store(k + 1, std::memory_order_release);
  }
  g_total_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  errno = saved;
}

// Arms the probe on the calling thread.
void Start() {
  struct sigaction sa {};
  sa.sa_handler = OnTick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGRTMIN, &sa, nullptr) != 0) return;
  sigevent ev{};
  ev.sigev_notify = SIGEV_THREAD_ID;
  ev.sigev_signo = SIGRTMIN;
  ev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0) return;
  itimerspec it{};
  it.it_interval.tv_nsec = kEveryNs;
  it.it_value.tv_nsec = kEveryNs;
  g_armed = timer_settime(g_timer, 0, &it, nullptr) == 0;
}

void Stop() {
  if (!g_armed) return;
  itimerspec it{};
  timer_settime(g_timer, 0, &it, nullptr);
  timer_delete(g_timer);
  g_armed = false;
}

// Nearest-rank p-th percentile of the run's kernel times (ns).
double PercentileNs(double p) {
  const std::size_t n = g_count.load(std::memory_order_acquire);
  if (n == 0) return 0;
  std::vector<std::uint64_t> d(g_dur, g_dur + n);
  std::sort(d.begin(), d.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return static_cast<double>(d[std::max<std::size_t>(rank, 1) - 1]);
}

// Probe time whose end lies in [a, b].
std::uint64_t InsideNs(std::uint64_t a, std::uint64_t b) {
  const std::size_t n = g_count.load(std::memory_order_acquire);
  const std::uint64_t* lo = std::lower_bound(g_end, g_end + n, a);
  const std::uint64_t* hi = std::upper_bound(g_end, g_end + n, b);
  std::uint64_t sum = 0;
  for (const std::uint64_t* p = lo; p < hi; ++p) sum += g_dur[p - g_end];
  return sum;
}

// Reference over actual speed around [a, b]; 1 without probes.
double Slowdown(std::uint64_t a, std::uint64_t b) {
  const std::size_t n = g_count.load(std::memory_order_acquire);
  if (n == 0) return 1.0;
  std::size_t lo =
      std::lower_bound(g_end, g_end + n, a > kMarginNs ? a - kMarginNs : 0) -
      g_end;
  std::size_t hi = std::upper_bound(g_end, g_end + n, b + kMarginNs) - g_end;
  if (lo == hi) {  // no probe near: the nearest one before, else after
    lo = hi > 0 ? hi - 1 : 0;
    hi = lo + 1;
  }
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += kReferenceNs / static_cast<double>(g_dur[i]);
  }
  return sum / static_cast<double>(hi - lo);
}

}  // namespace probe

// Each segment of a run (a window iteration, a serve-wire window or serving
// slice) runs with the whole process on one CPU, the next allowed CPU in
// turn. On a shared host a vCPU runs slow for as long as another tenant
// keeps its core busy (1.6x on three of four vCPUs in one probe); turning
// through them keeps one such vCPU from owning a whole run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  // Moves every thread of the process to the CPU of segment `k`; threads
  // started later inherit it.
  void Pin(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return;
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') {
        sched_setaffinity(std::atoi(e->d_name), sizeof(one), &one);
      }
    }
    closedir(dir);
  }

 private:
  std::vector<int> cpus_;
};

// Containers of the window ledger: structure, not layers (ledger.h).
const std::set<std::string> kWindowContainers = {"window", "refresh.session",
                                                 "recovery.batch"};

// Minimal JSON writer for the raw output line.
class Json {
 public:
  void Key(const std::string& k) {
    Sep();
    out_ += "\"" + k + "\":";
    fresh_ = true;
  }
  void Num(const std::string& k, double v) {
    Key(k);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    fresh_ = false;
  }
  void Str(const std::string& k, const std::string& v) {
    Key(k);
    out_ += "\"" + v + "\"";
    fresh_ = false;
  }
  void Arr(const std::string& k, const std::vector<double>& v) {
    Key(k);
    out_ += "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      out_ += buf;
    }
    out_ += "]";
    fresh_ = false;
  }
  void StrArr(const std::string& k, const std::vector<std::string>& v) {
    Key(k);
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ += (i ? ",\"" : "\"") + Escape(v[i]) + "\"";
    }
    out_ += "]";
    fresh_ = false;
  }
  void Open(const std::string& k) {
    Key(k);
    out_ += "{";
    fresh_ = true;
  }
  void Close() {
    out_ += "}";
    fresh_ = false;
  }
  std::string Finish() { return "{" + out_ + "}"; }

 private:
  static std::string Escape(const std::string& s) {
    std::string o;
    for (char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += (c == '\n') ? ' ' : c;
    }
    return o;
  }
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ",";
  }
  std::string out_;
  bool fresh_ = true;
};

// Everything a run reports before run.py turns it into metrics.
struct Raw {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> window_s, window_cpu_s, wire_bytes_per_byte;
  // Latency samples and the measurement segment each belongs to (a window
  // iteration, or a slice of the serving phase); -1 = failed or rejected.
  std::vector<double> upload_ms, upload_seg, download_ms, download_seg;
  std::vector<double> ping_us, gen_lag_ms;
  // CPU per upload or download, one value per segment.
  std::vector<double> op_cpu_ms;
  // Raw wall times of the untraced windows, before speed normalization.
  std::vector<double> window_wall_s;
  // serve-wire: share of the serving wall in which the host stalled.
  double stalled_share = 0;
  // Traced sections only.
  std::map<std::string, double> layers;
  std::vector<std::pair<std::string, double>> ledger_rows;
  double ledger_e2e_s = 0, ledger_sum_s = 0;
  std::vector<double> traced_e2e, untraced_e2e;

  // A time measured over [a, b]: `ns` of wall or CPU time, reported as
  // ns * unit / per. Finish() charges it at the reference speed (see
  // namespace probe); `with_probes` says whether `ns` includes the probes
  // that ran inside [a, b].
  void Timed(std::vector<double>& out, std::uint64_t a, std::uint64_t b,
             std::uint64_t ns, double unit, double per = 1,
             bool with_probes = true) {
    out.push_back(static_cast<double>(ns) * unit / per);
    pending_.push_back({&out, out.size() - 1, a, b, ns, unit / per,
                        with_probes});
  }
  void Finish() {
    probe::Stop();
    for (const Pending& p : pending_) {
      double ns = static_cast<double>(p.ns);
      if (p.with_probes) {
        ns -= static_cast<double>(probe::InsideNs(p.a, p.b));
      }
      (*p.out)[p.idx] = std::max(0.0, ns) * probe::Slowdown(p.a, p.b) * p.scale;
    }
    pending_.clear();
  }

  // An op over [a, b], less `off_ns` in which the host did not run the
  // process (serve-wire only).
  void Upload(std::uint64_t a, std::uint64_t b, std::size_t seg,
              std::uint64_t off_ns = 0) {
    Timed(upload_ms, a, b, b - a - off_ns, 1e-6);
    upload_seg.push_back(static_cast<double>(seg));
  }
  void Download(std::uint64_t a, std::uint64_t b, std::size_t seg,
                std::uint64_t off_ns = 0) {
    Timed(download_ms, a, b, b - a - off_ns, 1e-6);
    download_seg.push_back(static_cast<double>(seg));
  }
  void UploadFailed(std::size_t seg) {
    upload_ms.push_back(-1);
    upload_seg.push_back(static_cast<double>(seg));
  }
  void DownloadFailed(std::size_t seg) {
    download_ms.push_back(-1);
    download_seg.push_back(static_cast<double>(seg));
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }

 private:
  struct Pending {
    std::vector<double>* out;
    std::size_t idx;
    std::uint64_t a, b, ns;
    double scale;
    bool with_probes;
  };
  std::vector<Pending> pending_;
};

// Ledger of one traced section: rows per span name plus the residual.
struct Section {
  Ledger ledger;
  std::uint64_t wall_ns = 0;
  std::uint64_t net_sends = 0;
};

void StartTrace() {
  obs::ResetTrace();
  obs::EnableTracing("");
}

Section StopTrace(std::uint64_t wall_ns, const std::set<std::string>& containers) {
  obs::DisableTracing();
  const TraceDigest d = ParseTrace(obs::TraceToJson());
  obs::ResetTrace();
  return Section{BuildLedger(d, containers), wall_ns, d.net_sends};
}

// Adds one section's ledger rows to the run's reconciliation totals; returns
// the section's unattributed seconds.
double AddToReconcile(Raw& raw, const Section& s, const std::string& residual) {
  for (const auto& [name, ns] : s.ledger.self_ns) {
    raw.ledger_rows.emplace_back(name, Secs(ns));
  }
  const double unattributed =
      Secs(s.wall_ns) - Secs(s.ledger.covered_ns);
  raw.ledger_rows.emplace_back(residual, unattributed);
  raw.ledger_e2e_s += Secs(s.wall_ns);
  raw.ledger_sum_s += Secs(s.ledger.sum_self_ns()) + unattributed;
  return unattributed;
}

double SelfS(const Ledger& l, const std::string& name) {
  auto it = l.self_ns.find(name);
  return it == l.self_ns.end() ? 0.0 : Secs(it->second);
}

// Registry deltas by name, summable across sections.
using Counts = std::map<std::string, double>;

void AddCounts(Counts& into, const obs::Snapshot& delta) {
  for (const obs::MetricValue& m : delta) {
    into[m.name] += static_cast<double>(m.value);
  }
}

double Count(const Counts& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Registry-derived per-layer numbers over `per` units of work (windows or
// serve ops).
void AddRegistryLayers(Raw& raw, const Counts& c, double per) {
  // field.mont_muls / field.mont_sqrs count in debug builds only; the lazy
  // dot counters are live in the optimized build the benchmark requires.
  raw.layers["field.dot_calls"] = Ratio(Count(c, "field.dot_calls"), per);
  raw.layers["field.dot_products"] = Ratio(Count(c, "field.dot_products"), per);
  const double wh = Count(c, "math.wc_hits");
  raw.layers["math.wc_hit_ratio"] = Ratio(wh, wh + Count(c, "math.wc_misses"));
  const double ph = Count(c, "math.pd_hits");
  raw.layers["math.pd_hit_ratio"] = Ratio(ph, ph + Count(c, "math.pd_misses"));
  raw.layers["net.frames_dropped"] = Count(c, "net.frames_dropped");
  raw.layers["net.backpressure_stalls"] = Count(c, "net.backpressure_stalls");
}

// Per-op layer rows of a client-side section (uploads and downloads).
void AddClientLayers(Raw& raw, const Ledger& l, double uploads,
                     double downloads) {
  const double ops = uploads + downloads;
  auto per = [&](const char* span, double n) { return Ratio(1e3 * SelfS(l, span), n); };
  raw.layers["pisces.client.set.self_ms"] = per("client.set", uploads);
  raw.layers["pisces.codec.encode.self_ms"] = per("codec.encode", uploads);
  raw.layers["pisces.client.reconstruct.self_ms"] =
      per("client.reconstruct", downloads);
  raw.layers["pisces.codec.decode.self_ms"] = per("codec.decode", downloads);
  raw.layers["pisces.host.serve.self_ms"] = per("host.serve", ops);
  raw.layers["pisces.serving.request.self_ms"] = per("serving.request", ops);
}

// Proactive windows, measured the same way by the window workloads and by the
// serve-wire window phase. Untraced windows give the end-to-end samples;
// traced ones feed the window ledger and the per-window layer numbers.
class WindowMeter {
 public:
  WindowMeter(Raw& raw, std::size_t n, double stored_bytes)
      : raw_(raw), n_(n), stored_bytes_(stored_bytes) {}

  // One window: `run` drives it and returns one report per cluster, `fabric`
  // reads the simulated fabric's byte counter(s).
  void Measure(bool traced,
               const std::function<std::vector<pisces::WindowReport>()>& run,
               const std::function<std::uint64_t()>& fabric) {
    const obs::Snapshot before = obs::TakeSnapshot();
    const std::uint64_t bytes0 = fabric();
    if (traced) StartTrace();
    const std::uint64_t w0 = MonotonicNanos(), c0 = ProcessCpuNanos();
    const std::vector<pisces::WindowReport> reps = run();
    const std::uint64_t wall = MonotonicNanos() - w0;
    const std::uint64_t cpu = ProcessCpuNanos() - c0;
    const double wire = static_cast<double>(fabric() - bytes0);
    for (const pisces::WindowReport& rep : reps) {
      ++raw_.attempted;
      if (!rep.ok || rep.reboots != n_ || rep.reboots_deferred != 0) {
        raw_.Fail("window: ok=" + std::to_string(rep.ok) + " reboots=" +
                  std::to_string(rep.reboots) + " deferred=" +
                  std::to_string(rep.reboots_deferred));
      }
    }
    if (!traced) {
      untraced_wall_s_.push_back(Secs(wall));
      raw_.Timed(raw_.window_s, w0, w0 + wall, wall, 1e-9);
      raw_.Timed(raw_.window_cpu_s, w0, w0 + wall, cpu, 1e-9);
      raw_.window_wall_s.push_back(Secs(wall));
      raw_.wire_bytes_per_byte.push_back(wire / stored_bytes_);
      return;
    }
    const Section s = StopTrace(wall, kWindowContainers);
    unattributed_s_ += AddToReconcile(raw_, s, "window.unattributed");
    Accumulate(ledger_, s.ledger);
    traced_wall_s_.push_back(Secs(wall));
    windows_ += 1;
    sends_ += static_cast<double>(s.net_sends);
    for (const pisces::WindowReport& rep : reps) {
      refresh_cpu_s_ += Secs(rep.rerandomize_total.cpu_ns);
      recovery_cpu_s_ += Secs(rep.recover_total.cpu_ns);
    }
    AddCounts(counts_, obs::Delta(before, obs::TakeSnapshot()));
  }

  double traced_windows() const { return windows_; }
  const std::vector<double>& traced_wall_s() const { return traced_wall_s_; }
  const std::vector<double>& untraced_wall_s() const {
    return untraced_wall_s_;
  }
  const Counts& counts() const { return counts_; }

  // Per-window layer rows, averaged over the traced windows.
  void Report() const {
    auto per = [&](double v) { return Ratio(v, windows_); };
    auto self = [&](const char* span) { return per(SelfS(ledger_, span)); };
    raw_.layers["pss.refresh.cpu_s"] = per(refresh_cpu_s_);
    raw_.layers["pss.recovery.cpu_s"] = per(recovery_cpu_s_);
    raw_.layers["pss.vss.deal.self_s"] = self("vss.deal");
    raw_.layers["pss.vss.transform.self_s"] = self("vss.transform");
    raw_.layers["pss.vss.verify.self_s"] = self("vss.verify");
    raw_.layers["pss.recovery.finish.self_s"] = self("recovery.finish");
    raw_.layers["pss.recovery.mask.self_s"] = self("recovery.mask");
    raw_.layers["window.unattributed_s"] = per(unattributed_s_);
    raw_.layers["net.msgs"] = per(sends_);
    for (const char* t : {"MaskedShare", "Deal", "CheckShare", "HostCert"}) {
      const std::string name = std::string("net.bytes_sent.") + t;
      raw_.layers[name] = per(Count(counts_, name));
    }
  }

 private:
  Raw& raw_;
  std::size_t n_;
  double stored_bytes_;
  Ledger ledger_;
  Counts counts_;  // registry deltas summed over the traced windows
  std::vector<double> traced_wall_s_, untraced_wall_s_;
  double windows_ = 0, sends_ = 0, unattributed_s_ = 0;
  double refresh_cpu_s_ = 0, recovery_cpu_s_ = 0;
};

// ---------------------------------------------------------- micro probes --

// Calls `fn` in batches of `batch` until `budget_ns` elapsed (at least five
// batches); returns the median per-call nanoseconds over the batches.
double TimePerCall(const std::function<void()>& fn, std::uint64_t budget_ns,
                   std::size_t batch = 8) {
  std::vector<double> per;
  const std::uint64_t start = MonotonicNanos();
  while (per.size() < 5 || MonotonicNanos() - start < budget_ns) {
    const std::uint64_t t0 = MonotonicNanos();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per.push_back(static_cast<double>(MonotonicNanos() - t0) /
                  static_cast<double>(batch));
  }
  return Median(per);
}

volatile std::uint64_t g_sink = 0;

void RunMicroProbes(Raw& raw, const pisces::pss::Params& params,
                    std::uint64_t seed) {
  constexpr std::uint64_t kBudget = 150'000'000;  // per probe
  pisces::Rng rng(seed ^ 0x9B0BE5ull);
  namespace crypto = pisces::crypto;
  const crypto::SchnorrGroup& group = crypto::SchnorrGroup::Default();
  crypto::CertAuthority ca(group, rng);
  auto [cert, sk] = ca.IssueHostKey(3, 1, rng);
  const crypto::HostCert peer_cert = ca.IssueHostKey(4, 1, rng).first;
  raw.layers["crypto.cert_verify_us"] =
      1e-3 * TimePerCall([&] {
        g_sink = g_sink + crypto::CertAuthority::VerifyCert(
                              group, ca.public_key(), cert);
      }, kBudget, 4);
  raw.layers["crypto.dh_us"] =
      1e-3 * TimePerCall([&] {
        g_sink = g_sink +
                 crypto::DhSharedSecret(group, sk, peer_cert.host_pk).size();
      }, kBudget, 4);

  const Bytes kib4 = rng.RandomBytes(4096);
  const Bytes ka = rng.RandomBytes(64), kb = rng.RandomBytes(64);
  crypto::SecureChannel tx(ka, kb), rx(kb, ka);
  raw.layers["crypto.seal_open_us_per_kib"] =
      1e-3 / 4.0 * TimePerCall([&] {
        const Bytes frame = tx.Seal(kib4);
        g_sink = g_sink + rx.Open(frame)->size();
      }, kBudget);
  pisces::net::Message msg;
  msg.from = 1;
  msg.to = 2;
  msg.type = pisces::net::MsgType::kMaskedShare;
  msg.payload = kib4;
  raw.layers["net.msg_codec_us_per_kib"] =
      1e-3 / 4.0 * TimePerCall([&] {
        g_sink = g_sink +
                 pisces::net::Message::Deserialize(msg.Serialize()).payload.size();
      }, kBudget);

  for (std::size_t bits : {std::size_t{1024}, std::size_t{256}}) {
    const pisces::field::FpCtx ctx(pisces::field::StandardPrimeBe(bits));
    pisces::field::FpElem a = ctx.RandomNonZero(rng);
    const pisces::field::FpElem b = ctx.RandomNonZero(rng);
    const std::string g = "g" + std::to_string(bits);
    raw.layers["field.mul_ns." + g] =
        TimePerCall([&] { a = ctx.Mul(a, b); }, kBudget / 2, 256);
    raw.layers["field.inv_us." + g] =
        1e-3 * TimePerCall([&] { a = ctx.Inv(a); }, kBudget / 2, 4);
    g_sink = g_sink + a.v[0];
  }

  // Share generation and reconstruction of one block at the workload's
  // group shape and field.
  auto ctx = std::make_shared<const pisces::field::FpCtx>(
      pisces::field::StandardPrimeBe(params.field_bits));
  const pisces::pss::PackedShamir ps(ctx, params);
  std::vector<pisces::field::FpElem> secrets;
  for (std::size_t j = 0; j < params.l; ++j) secrets.push_back(ctx->Random(rng));
  std::vector<pisces::field::FpElem> shares = ps.ShareBlock(secrets, rng);
  raw.layers["pss.share_block_us"] =
      1e-3 * TimePerCall([&] { shares = ps.ShareBlock(secrets, rng); }, kBudget);
  std::vector<std::uint32_t> parties;
  for (std::uint32_t i = 0; i < params.n; ++i) parties.push_back(i);
  raw.layers["pss.reconstruct_block_us"] =
      1e-3 * TimePerCall([&] {
        g_sink = g_sink + ps.ReconstructBlock(parties, shares).size();
      }, kBudget);
}

// --------------------------------------------------------------- windows --

struct WindowSpec {
  std::size_t field_bits;
  std::size_t files;
  std::size_t file_bytes;
};

pisces::pss::Params PaperParams(std::size_t field_bits) {
  pisces::pss::Params p;
  p.n = 21;
  p.t = 4;
  p.l = 6;
  p.r = 3;
  p.field_bits = field_bits;
  return p;
}

// Set-up is repeated kSetups times, at even intervals over the first
// `span_s` seconds of the run (its median is reported): the shared host's
// speed changes in phases of seconds, and set-ups run back to back would all
// land in one phase. The first set-up builds the instance that is measured;
// the later ones build a spare that is timed and discarded.
constexpr std::size_t kSetups = 9;

bool SetupDue(const Raw& raw, std::uint64_t start_ns, double span_s) {
  const std::size_t k = raw.setup_s.size();
  return k < kSetups &&
         Secs(MonotonicNanos() - start_ns) >= span_s * static_cast<double>(k) /
                                                  static_cast<double>(kSetups);
}

void RunWindows(const WindowSpec& spec, std::uint64_t seed, double seconds,
                bool trace, Raw& raw) {
  pisces::ClusterConfig cfg;
  cfg.params = PaperParams(spec.field_bits);
  cfg.seed = seed;
  cfg.encrypt_links = true;
  pisces::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<Bytes> files;
  for (std::size_t i = 0; i < spec.files; ++i) {
    files.push_back(rng.RandomBytes(spec.file_bytes));
  }

  const CpuRotation cpus;
  cpus.Pin(0);
  // Set-up: construction plus preload.
  auto set_up = [&] {
    const std::uint64_t t0 = MonotonicNanos();
    auto c = std::make_unique<pisces::Cluster>(cfg);
    for (std::size_t i = 0; i < files.size(); ++i) c->Upload(i + 1, files[i]);
    const std::uint64_t t1 = MonotonicNanos();
    raw.Timed(raw.setup_s, t0, t1, t1 - t0, 1e-9);
    return c;
  };
  const std::unique_ptr<pisces::Cluster> cluster = set_up();
  WindowMeter meter(raw, cfg.params.n,
                    static_cast<double>(spec.files * spec.file_bytes));
  Ledger client_ledger;
  double traced_uploads = 0, traced_downloads = 0, client_unattributed_s = 0;
  std::uint64_t probe_id = 1'000'000;
  const obs::Snapshot run_before = obs::TakeSnapshot();

  // Iterations run while the next one, as long as the last, still ends
  // within --seconds (at least three run).
  const std::uint64_t start = MonotonicNanos();
  std::uint64_t last_iter_ns = 0;
  for (std::size_t iter = 0;; ++iter) {
    const std::uint64_t iter0 = MonotonicNanos();
    if (iter >= 3 && Secs(iter0 - start + last_iter_ns) > seconds) break;
    cpus.Pin(iter);
    if (SetupDue(raw, start, seconds)) set_up();
    const bool traced = trace && iter % 2 == 1;
    meter.Measure(
        traced, [&] { return std::vector{cluster->RunUpdateWindow()}; },
        [&] { return cluster->net().TotalBytes(); });

    // ---- correctness gate plus user ops: every file comes back bit-exact
    // (read again until there were 8 reads, so one large file still gives
    // a median of several reads), then as many fresh files as the workload
    // holds, but at least 2, go up, come back and are deleted again ----
    if (traced) StartTrace();
    const std::uint64_t ops0 = MonotonicNanos(), opc0 = ProcessCpuNanos();
    double uploads = 0, downloads = 0;
    auto timed_download = [&](std::uint64_t id, const Bytes& want) {
      ++raw.attempted;
      ++downloads;
      const std::uint64_t t0 = MonotonicNanos();
      try {
        const Bytes got = cluster->Download(pisces::ReadSpec::Classic(id));
        const std::uint64_t t1 = MonotonicNanos();
        if (got != want) {
          raw.Fail("download of file " + std::to_string(id) +
                   " is not bit-exact");
          raw.DownloadFailed(iter);
        } else {
          raw.Download(t0, t1, iter);
        }
      } catch (const std::exception& e) {
        raw.Fail(std::string("download: ") + e.what());
        raw.DownloadFailed(iter);
      }
    };
    for (std::size_t r = 0; r < std::max<std::size_t>(1, 8 / files.size());
         ++r) {
      for (std::size_t i = 0; i < files.size(); ++i) {
        timed_download(i + 1, files[i]);
      }
    }
    for (std::size_t i = 0; i < std::max<std::size_t>(2, files.size()); ++i) {
      const std::uint64_t id = probe_id++;
      const Bytes data = rng.RandomBytes(spec.file_bytes);
      ++raw.attempted;
      ++uploads;
      const std::uint64_t t0 = MonotonicNanos();
      bool up_ok = true;
      try {
        cluster->Upload(id, data);
        raw.Upload(t0, MonotonicNanos(), iter);
      } catch (const std::exception& e) {
        raw.Fail(std::string("upload: ") + e.what());
        raw.UploadFailed(iter);
        up_ok = false;
      }
      if (!up_ok) continue;
      timed_download(id, data);
      ++raw.attempted;
      try {
        cluster->Delete(id);
      } catch (const std::exception& e) {
        raw.Fail(std::string("delete: ") + e.what());
      }
    }
    const std::uint64_t ops_wall = MonotonicNanos() - ops0;
    if (!traced) {
      raw.Timed(raw.op_cpu_ms, ops0, ops0 + ops_wall,
                ProcessCpuNanos() - opc0, 1e-6, uploads + downloads);
    } else {
      const Section s = StopTrace(ops_wall, {});
      client_unattributed_s += AddToReconcile(raw, s, "serve.unattributed");
      Accumulate(client_ledger, s.ledger);
      traced_uploads += uploads;
      traced_downloads += downloads;
    }
    last_iter_ns = MonotonicNanos() - iter0;
  }

  if (trace) {
    meter.Report();
    raw.traced_e2e = meter.traced_wall_s();
    raw.untraced_e2e = meter.untraced_wall_s();
    AddRegistryLayers(raw, meter.counts(), meter.traced_windows());
    AddClientLayers(raw, client_ledger, traced_uploads, traced_downloads);
    raw.layers["serve.unattributed_ms"] = Ratio(
        1e3 * client_unattributed_s, traced_uploads + traced_downloads);
    Counts run;
    AddCounts(run, obs::Delta(run_before, obs::TakeSnapshot()));
    raw.layers["serving.rejected"] = Count(run, "serving.rejected");
    raw.layers["serving.failed"] = Count(run, "serving.failed");
    RunMicroProbes(raw, cfg.params, seed);
  }
}

// ------------------------------------------------------------ serve-wire --

constexpr std::size_t kServePreload = 32;
constexpr std::size_t kServeFileBytes = 2048;
// Data ops per second. At 400/s the gap between sends (2.5 ms) was no longer
// than an upload on a contended core, so how often downloads queued behind
// uploads, and with it the p99s, followed the host's load from run to run.
constexpr double kServeRate = 200.0;
constexpr double kPingRate = 10.0;    // pings per second, on an idle wire
// Share of --seconds spent on proactive windows (at least 3 of them) before
// the serving phase takes the rest. The serving phase is cut into this many
// segments (0.75 s each at --seconds 30) for the per-segment percentiles
// and CPU: host stalls on a shared machine come in bursts, and slices this
// short leave most of them stall-free.
constexpr double kServeWindowShare = 0.25;
// A gap between two polls counts as a host stall above this much off-CPU
// time (clock reads alone differ by a microsecond or two).
constexpr std::uint64_t kStallNs = 20'000;
constexpr std::size_t kServeSegments = 30;

pisces::ServingConfig ServeConfig(std::uint64_t seed) {
  pisces::ServingConfig cfg;
  cfg.shards = 2;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = seed;
  cfg.encrypt_links = true;
  cfg.admission_capacity = 64;
  cfg.max_inflight = 8;
  return cfg;
}

// One request in flight on the wire.
struct InFlight {
  ServingOp op = ServingOp::kPing;
  std::uint64_t file = 0;
  std::uint64_t due_ns = 0;   // scheduled send time
  std::uint64_t sent_ns = 0;  // actual send time
};

// The serving stack: plane, gateway and wire client on two loopback
// async-TCP endpoints, pumped from the calling thread.
class WireStack {
 public:
  WireStack(const pisces::ServingConfig& cfg, std::uint16_t port_base)
      : plane_(cfg),
        gw_ep_(Opts(pisces::net::kGatewayId, port_base)),
        cl_ep_(Opts(pisces::net::kGatewayId + 1,
                    static_cast<std::uint16_t>(port_base + 1))),
        gateway_(plane_, gw_ep_),
        client_(pisces::WireClientConfig{}, cl_ep_) {
    gw_ep_.AddPeer(pisces::net::kGatewayId + 1,
                   static_cast<std::uint16_t>(port_base + 1));
    cl_ep_.AddPeer(pisces::net::kGatewayId, port_base);
    client_.AdoptMap(plane_.routing_map());
    for (std::size_t i = 0; i < kSessions; ++i) {
      sessions_.push_back(client_.OpenSession());
    }
  }

  pisces::ServingPlane& plane() { return plane_; }

  // Sends one request on the next session (round robin); returns its
  // (session, ordinal) key, which the response echoes.
  std::pair<std::uint64_t, std::uint64_t> Send(ServingOp op, std::uint64_t file,
                                               Bytes payload = {}) {
    const std::uint64_t session = sessions_[sent_++ % sessions_.size()];
    return {session, client_.Send(session, op, file, std::move(payload))};
  }

  // Moves every message that has arrived through the gateway (and the plane)
  // and the client, without blocking; appends terminal responses to `out`.
  // Returns whether there was anything to do; when not, yields the CPU to
  // the reactor threads (RunServe pins all three threads to one CPU).
  bool Step(std::vector<pisces::net::ServingResponseFrame>& out) {
    bool worked = false;
    while (auto m = gw_ep_.Receive()) {
      gateway_.HandleMessage(*m);
      worked = true;
    }
    if (worked) {
      const std::uint64_t t0 = MonotonicNanos();
      do {
        gateway_.Pump();
      } while (plane_.TotalQueued() > 0);
      pump_ns_ += MonotonicNanos() - t0;
    }
    while (auto m = cl_ep_.Receive()) {
      client_.HandleMessage(*m);
      worked = true;
    }
    for (auto& r : client_.TakeResponses()) out.push_back(std::move(r));
    if (!worked) sched_yield();
    return worked;
  }

  std::uint64_t pump_ns() const { return pump_ns_; }
  std::uint64_t bad_frames() const { return gateway_.bad_frames(); }

 private:
  static pisces::net::AsyncTcpOptions Opts(std::uint32_t id,
                                           std::uint16_t port) {
    pisces::net::AsyncTcpOptions o;
    o.id = id;
    o.listen_port = port;
    o.seed = 11 + id;
    return o;
  }
  pisces::ServingPlane plane_;
  pisces::net::AsyncTcpEndpoint gw_ep_;
  pisces::net::AsyncTcpEndpoint cl_ep_;
  pisces::ServingGateway gateway_;
  pisces::ServingWireClient client_;
  static constexpr std::size_t kSessions = 8;  // multiplexed on one link
  std::vector<std::uint64_t> sessions_;
  std::uint64_t sent_ = 0;
  std::uint64_t pump_ns_ = 0;
};

// Loopback ports derived from the pid, probing upward past ports in use.
std::unique_ptr<WireStack> MakeStack(const pisces::ServingConfig& cfg,
                                     int attempt) {
  for (int probe = 0; probe < 64; ++probe) {
    const auto base = static_cast<std::uint16_t>(
        21000 + ((::getpid() * 61 + attempt * 7 + probe * 131) % 18000) * 2);
    try {
      return std::make_unique<WireStack>(cfg, base);
    } catch (const pisces::Error&) {
    }
  }
  throw pisces::Error("serve-wire: no free loopback port pair");
}

// Sends one request and pumps until its response arrives (set-up traffic).
bool RoundTrip(WireStack& s, ServingOp op, std::uint64_t file, Bytes payload) {
  s.Send(op, file, std::move(payload));
  std::vector<pisces::net::ServingResponseFrame> got;
  const std::uint64_t deadline = MonotonicNanos() + 10'000'000'000ull;
  while (got.empty() && MonotonicNanos() < deadline) s.Step(got);
  return !got.empty() && got[0].status == ServingStatus::kOk;
}

void RunServe(std::uint64_t seed, double seconds, bool trace, Raw& raw) {
  // Pin the process to one CPU before the reactor threads start (they
  // inherit it), and move all of it together from segment to segment: the
  // generator, the gateway pump and both reactors then share one vCPU that
  // never idles, so no hand-off between them waits for another vCPU to be
  // woken. On a shared host that wait varies by milliseconds from run to run
  // and would own every latency tail.
  const CpuRotation cpus;
  cpus.Pin(0);
  const pisces::ServingConfig cfg = ServeConfig(seed);
  pisces::Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
  std::map<std::uint64_t, Bytes> content;  // every file ever uploaded
  std::vector<std::uint64_t> live;
  for (std::size_t i = 0; i < kServePreload; ++i) {
    content[i + 1] = rng.RandomBytes(kServeFileBytes);
    live.push_back(i + 1);
  }

  // Set-up: plane construction, TCP connect (a ping round trip) and the
  // preload through the wire.
  auto set_up = [&] {
    const std::uint64_t t0 = MonotonicNanos();
    auto s = MakeStack(cfg, static_cast<int>(raw.setup_s.size()));
    if (!RoundTrip(*s, ServingOp::kPing, 0, Bytes{1})) {
      raw.Fail("set-up: gateway did not answer a ping");
    }
    for (std::uint64_t id : live) {
      if (!RoundTrip(*s, ServingOp::kUpload, id, content[id])) {
        raw.Fail("set-up: preload upload " + std::to_string(id));
      }
    }
    const std::uint64_t t1 = MonotonicNanos();
    raw.Timed(raw.setup_s, t0, t1, t1 - t0, 1e-9);
    return s;
  };
  const std::unique_ptr<WireStack> stack = set_up();
  pisces::ServingPlane& plane = stack->plane();
  auto fabric = [&] {
    std::uint64_t bytes = 0;
    for (std::uint32_t i = 0; i < plane.shard_count(); ++i) {
      bytes += plane.shard(i).net().TotalBytes();
    }
    return bytes;
  };
  auto window = [&] {
    std::vector<pisces::WindowReport> reps;
    for (std::uint32_t i = 0; i < plane.shard_count(); ++i) {
      reps.push_back(plane.shard(i).RunUpdateWindow());
    }
    return reps;
  };

  // ---- proactive windows over the preloaded population (no serving load,
  // so the serving p99 never sees a refresh stall); the spare set-ups run
  // between them ----
  WindowMeter meter(raw, cfg.params.n,
                    static_cast<double>(live.size() * kServeFileBytes));
  const std::uint64_t windows_start = MonotonicNanos();
  const double windows_s = kServeWindowShare * seconds;
  for (int w = 0; w < 3 || Secs(MonotonicNanos() - windows_start) < windows_s;
       ++w) {
    cpus.Pin(static_cast<std::size_t>(w));
    if (SetupDue(raw, windows_start, windows_s)) set_up();
    meter.Measure(trace && w % 2 == 1, window, fabric);
    // Gate: every file reads back bit-exact on the classic path.
    for (std::uint64_t id : live) {
      ++raw.attempted;
      try {
        const Bytes got =
            plane.shard(plane.ShardOf(id)).Download(pisces::ReadSpec::Classic(id));
        if (got != content[id]) {
          raw.Fail("after window: file " + std::to_string(id) +
                   " is not bit-exact");
        }
      } catch (const std::exception& e) {
        raw.Fail(std::string("after window download: ") + e.what());
      }
    }
  }

  // ---- open-loop serving: 20% upload, 75% download, 5% delete at a fixed
  // rate, pings interleaved; latency from the scheduled send time ----
  const pisces::ServingStats stats0 = plane.stats();
  const obs::Snapshot reg0 = obs::TakeSnapshot();
  std::map<std::pair<std::uint64_t, std::uint64_t>, InFlight> inflight;
  std::vector<pisces::net::ServingResponseFrame> responses;
  std::uint64_t next_file = kServePreload + 1;
  const std::uint64_t gap_ns = static_cast<std::uint64_t>(1e9 / kServeRate);
  const std::uint64_t ping_gap_ns = static_cast<std::uint64_t>(1e9 / kPingRate);
  cpus.Pin(0);
  const std::uint64_t start = MonotonicNanos();
  const std::uint64_t run_ns =
      static_cast<std::uint64_t>((1 - kServeWindowShare) * seconds * 1e9);
  auto segment = [&](std::uint64_t due) {
    return std::min<std::size_t>(kServeSegments - 1,
                                 (due - start) * kServeSegments / run_ns);
  };
  // Trace mode: the first half runs untraced; tracing starts at the first
  // moment after half time when nothing is in flight, so no op straddles it.
  const std::uint64_t trace_on_ns = trace ? start + run_ns / 2 : ~0ull;
  const std::uint64_t end = start + run_ns;
  std::uint64_t next_due = start, next_ping = start + ping_gap_ns / 2;
  std::uint64_t trace_start = ~0ull, trace_pump0 = 0;
  // Serve CPU: the reactor threads' CPU plus the main thread's CPU in the
  // calls that did work; the main thread's empty polls are not serving cost.
  // It is split by segment, like the latencies.
  std::uint64_t main_work_cpu = 0;
  auto serve_cpu = [&] {
    return ProcessCpuNanos() - pisces::ThreadCpuNanos() + main_work_cpu;
  };
  std::vector<std::uint64_t> seg_cpu(kServeSegments, 0);
  std::vector<double> seg_ops(kServeSegments, 0);
  std::size_t cpu_seg = 0;
  std::uint64_t cpu_mark = serve_cpu();
  // Main-thread CPU of a call, less the speed probes that interrupted it.
  auto work_cpu = [](std::uint64_t cpu0, std::uint64_t probe0) {
    const std::uint64_t cpu = pisces::ThreadCpuNanos() - cpu0;
    const std::uint64_t probes = probe::g_total_ns.load() - probe0;
    return cpu > probes ? cpu - probes : 0;
  };
  auto step = [&] {
    const std::uint64_t t0 = pisces::ThreadCpuNanos();
    const std::uint64_t p0 = probe::g_total_ns.load();
    if (stack->Step(responses)) main_work_cpu += work_cpu(t0, p0);
  };
  auto send = [&](const InFlight& f, Bytes payload) {
    const std::uint64_t t0 = pisces::ThreadCpuNanos();
    const std::uint64_t p0 = probe::g_total_ns.load();
    inflight[stack->Send(f.op, f.file, std::move(payload))] = f;
    main_work_cpu += work_cpu(t0, p0);
  };
  // Host stalls. The main thread never blocks (it polls), so the process
  // always has a thread ready to run: wall time between two polls in which
  // the process's CPU clock did not advance is time the host did not run the
  // process at all (its vCPU descheduled), which the speed probe cannot see.
  // On the shared host this benchmark was tuned on, such stalls of 1-15 ms
  // came and went over minutes and owned the serving p99s; latencies leave
  // them out, and the context line reports their share of the serving wall.
  struct Stall {
    std::uint64_t from, to, off_ns;
  };
  std::vector<Stall> stalls;
  std::uint64_t poll_wall = MonotonicNanos(), poll_cpu = ProcessCpuNanos();
  auto poll_mark = [&] {
    const std::uint64_t w = MonotonicNanos(), c = ProcessCpuNanos();
    const std::uint64_t dw = w - poll_wall, dc = c - poll_cpu;
    if (dw > dc + kStallNs) stalls.push_back({poll_wall, w, dw - dc});
    poll_wall = w;
    poll_cpu = c;
    return w;
  };
  // Stalled time inside [a, b], pro rata for a stall that straddles an end.
  auto stalled_ns = [&](std::uint64_t a, std::uint64_t b) {
    auto it = std::lower_bound(
        stalls.begin(), stalls.end(), a,
        [](const Stall& st, std::uint64_t t) { return st.to <= t; });
    double sum = 0;
    for (; it != stalls.end() && it->from < b; ++it) {
      const std::uint64_t lo = std::max(a, it->from), hi = std::min(b, it->to);
      sum += static_cast<double>(it->off_ns) * static_cast<double>(hi - lo) /
             static_cast<double>(it->to - it->from);
    }
    return static_cast<std::uint64_t>(sum);
  };
  double data_ops = 0;
  struct Done {
    ServingOp op;
    std::uint64_t due_ns, sent_ns, done_ns;
    bool ok;
  };
  std::vector<Done> done;

  auto absorb = [&]() {
    const std::uint64_t now = MonotonicNanos();
    for (auto& r : responses) {
      auto it = inflight.find({r.session, r.request});
      if (it == inflight.end()) {
        raw.Fail("response to an unknown request");
        continue;
      }
      const InFlight f = it->second;
      inflight.erase(it);
      bool ok = r.status == ServingStatus::kOk;
      if (ok && f.op == ServingOp::kDownload && r.payload != content[f.file]) {
        raw.Fail("serve download of file " + std::to_string(f.file) +
                 " is not bit-exact");
        ok = false;
      } else if (!ok) {
        raw.Fail(std::string("serve op ") + std::to_string(int(f.op)) +
                 " status " + pisces::StatusName(r.status));
      }
      done.push_back({f.op, f.due_ns, f.sent_ns, now, ok});
    }
    responses.clear();
  };

  while (true) {
    std::uint64_t now = poll_mark();
    if (now >= end) break;
    if (segment(now) != cpu_seg) {
      const std::uint64_t c = serve_cpu();
      seg_cpu[cpu_seg] += c - cpu_mark;
      cpu_mark = c;
      cpu_seg = segment(now);
      cpus.Pin(cpu_seg);
    }
    if (trace_start == ~0ull && now >= trace_on_ns && inflight.empty()) {
      StartTrace();
      trace_start = now;
      trace_pump0 = stack->pump_ns();
    }
    bool sent_any = false;
    while (next_due <= now && next_due < end) {
      const std::uint64_t dice = rng.Below(100);
      InFlight f;
      f.due_ns = next_due;
      Bytes payload;
      if (dice < 20 || live.size() < 8) {
        f.op = ServingOp::kUpload;
        f.file = next_file++;
        content[f.file] = rng.RandomBytes(kServeFileBytes);
        payload = content[f.file];
        live.push_back(f.file);
      } else if (dice < 95) {
        f.op = ServingOp::kDownload;
        f.file = live[rng.Below(live.size())];
      } else {
        const std::size_t pick = rng.Below(live.size());
        f.op = ServingOp::kDelete;
        f.file = live[pick];
        live[pick] = live.back();
        live.pop_back();
      }
      f.sent_ns = MonotonicNanos();
      raw.gen_lag_ms.push_back(Millis(f.sent_ns - f.due_ns));
      send(f, std::move(payload));
      ++raw.attempted;
      data_ops += 1;
      seg_ops[segment(f.due_ns)] += 1;
      next_due += gap_ns;
      sent_any = true;
    }
    // A ping waits for an idle wire, so its round trip carries transport,
    // framing and gateway cost with no PSS work queued ahead of it.
    if (next_ping <= now && next_ping < end && inflight.empty() && !sent_any) {
      InFlight f;
      f.op = ServingOp::kPing;
      f.due_ns = next_ping;
      f.sent_ns = MonotonicNanos();
      send(f, Bytes{7, 7, 7, 7});
      ++raw.attempted;
      next_ping += ping_gap_ns;
      sent_any = true;
    }
    step();
    absorb();
  }
  // Drain what is still in flight (bounded).
  const std::uint64_t drain_deadline = MonotonicNanos() + 20'000'000'000ull;
  while (!inflight.empty() && poll_mark() < drain_deadline) {
    step();
    absorb();
  }
  seg_cpu[cpu_seg] += serve_cpu() - cpu_mark;
  raw.stalled_share = Ratio(static_cast<double>(stalled_ns(start, poll_wall)),
                            static_cast<double>(poll_wall - start));
  for (std::size_t i = 0; i < kServeSegments; ++i) {
    if (seg_ops[i] == 0) continue;
    const std::uint64_t a = start + i * run_ns / kServeSegments;
    raw.Timed(raw.op_cpu_ms, a, a + run_ns / kServeSegments, seg_cpu[i], 1e-6,
              seg_ops[i], /*with_probes=*/false);
  }
  for (const auto& [req, f] : inflight) {
    raw.Fail("serve op never answered (file " + std::to_string(f.file) + ")");
    if (f.op == ServingOp::kUpload) raw.UploadFailed(segment(f.due_ns));
    if (f.op == ServingOp::kDownload) raw.DownloadFailed(segment(f.due_ns));
  }

  std::vector<double> traced_lat, untraced_lat;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
  double traced_up = 0, traced_down = 0, traced_ops = 0;
  for (const Done& d : done) {
    const double ms = d.ok ? Millis(d.done_ns - d.due_ns) : -1;
    if (d.op == ServingOp::kPing) {
      if (d.ok) raw.ping_us.push_back(1e-3 * (d.done_ns - d.sent_ns));
    } else if (d.op == ServingOp::kUpload) {
      if (d.ok) {
        raw.Upload(d.due_ns, d.done_ns, segment(d.due_ns),
                   stalled_ns(d.due_ns, d.done_ns));
      } else {
        raw.UploadFailed(segment(d.due_ns));
      }
    } else if (d.op == ServingOp::kDownload) {
      if (d.ok) {
        raw.Download(d.due_ns, d.done_ns, segment(d.due_ns),
                     stalled_ns(d.due_ns, d.done_ns));
      } else {
        raw.DownloadFailed(segment(d.due_ns));
      }
    }
    if (d.op == ServingOp::kDownload && d.ok) {
      (d.due_ns >= trace_start ? traced_lat : untraced_lat).push_back(ms);
    }
    if (d.done_ns > trace_start) {
      busy.emplace_back(std::max(d.due_ns, trace_start), d.done_ns);
      traced_ops += 1;
      if (d.op == ServingOp::kUpload) traced_up += 1;
      if (d.op == ServingOp::kDownload) traced_down += 1;
    }
  }

  // Ledger: accepted == completed + failed, no rejects, no bad frames.
  const pisces::ServingStats& st = plane.stats();
  if (st.accepted != st.completed + st.failed) {
    raw.Fail("serving ledger: accepted " + std::to_string(st.accepted) +
             " != completed " + std::to_string(st.completed) + " + failed " +
             std::to_string(st.failed));
  }
  if (stack->bad_frames() != 0) raw.Fail("gateway saw bad frames");

  if (trace) {
    // Busy wall: union of the traced ops' [due, response] intervals.
    std::sort(busy.begin(), busy.end());
    std::uint64_t busy_ns = 0, cb = 0, ce = 0;
    for (auto [b, e] : busy) {
      if (e <= ce) continue;
      if (b > ce) {
        busy_ns += ce - cb;
        cb = b;
      }
      ce = e;
    }
    busy_ns += ce - cb;
    const std::uint64_t pump_ns = stack->pump_ns() - trace_pump0;
    Section s = StopTrace(busy_ns, {});
    // The gateway pump is the benchmark's own span: its self time is what
    // the program's spans inside it leave uncovered.
    const std::uint64_t pump_self =
        pump_ns > s.ledger.covered_ns ? pump_ns - s.ledger.covered_ns : 0;
    if (pump_ns < s.ledger.covered_ns) {
      raw.Fail("ledger: program spans outside the gateway pump");
    }
    s.ledger.self_ns["bench.gateway_pump"] = pump_self;
    s.ledger.covered_ns += pump_self;
    AddToReconcile(raw, s, "serve.unattributed");
    AddClientLayers(raw, s.ledger, traced_up, traced_down);
    raw.layers["pisces.serving.pump_ms"] =
        traced_ops > 0 ? 1e3 * Secs(pump_ns) / traced_ops : 0;
    raw.layers["serve.unattributed_ms"] =
        traced_ops > 0
            ? 1e3 * (Secs(busy_ns) - Secs(s.ledger.covered_ns)) / traced_ops
            : 0;
    raw.traced_e2e.push_back(Median(traced_lat));
    raw.untraced_e2e.push_back(Median(untraced_lat));

    meter.Report();
    Counts serving;
    AddCounts(serving, obs::Delta(reg0, obs::TakeSnapshot()));
    AddRegistryLayers(raw, serving, data_ops);
    raw.layers["serving.rejected"] =
        static_cast<double>(st.rejected - stats0.rejected);
    raw.layers["serving.failed"] =
        static_cast<double>(st.failed - stats0.failed);
    RunMicroProbes(raw, cfg.params, seed);
  }
}

// ------------------------------------------------------------------ main --

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::stoull(v);
    } else if (a == "--seconds") {
      seconds = std::stod(v);
    } else if (a == "--trace") {
      trace = v == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  Raw raw;
  std::string params;
  if (!trace) probe::Start();
  try {
    if (workload == "window-bulk") {
      params = "n=21 t=4 l=6 r=3 g=1024 files=1x65536B sealed";
      RunWindows({1024, 1, 64 * 1024}, seed, seconds, trace, raw);
    } else if (workload == "window-small") {
      params = "n=21 t=4 l=6 r=3 g=256 files=8x256B sealed";
      RunWindows({256, 8, 256}, seed, seconds, trace, raw);
    } else if (workload == "serve-wire") {
      params =
          "shards=2 n=8 t=1 l=2 r=2 g=256 sealed; open loop 200 ops/s "
          "20/75/5 upload/download/delete, 2048B files, preload 32, "
          "10 pings/s, async-TCP loopback";
      RunServe(seed, seconds, trace, raw);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    raw.Fail(std::string("aborted: ") + e.what());
  }

  raw.Finish();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  Json j;
  j.Open("context");
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  j.Str("build_type", "release");
#else
  j.Str("build_type", "debug");
#endif
  j.Str("workload", workload);
  j.Str("params", params);
  j.Num("pool_threads", static_cast<double>(pisces::GlobalPoolThreads()));
  j.Num("hardware_threads",
        static_cast<double>(std::thread::hardware_concurrency()));
  j.Num("probes", static_cast<double>(probe::g_count.load()));
  j.Num("probe_p1_us", 1e-3 * probe::PercentileNs(1));
  j.Num("probe_median_us", 1e-3 * probe::PercentileNs(50));
  j.Num("stalled_share", raw.stalled_share);
  j.Close();
  j.StrArr("errors", raw.errors);
  j.Num("attempted", static_cast<double>(raw.attempted));
  j.Num("failed", static_cast<double>(raw.failed));
  j.Arr("setup_s", raw.setup_s);
  j.Num("peak_rss_kib", static_cast<double>(ru.ru_maxrss));
  j.Arr("window_s", raw.window_s);
  j.Arr("window_cpu_s", raw.window_cpu_s);
  j.Arr("window_wire_bytes_per_byte", raw.wire_bytes_per_byte);
  j.Arr("upload_ms", raw.upload_ms);
  j.Arr("upload_seg", raw.upload_seg);
  j.Arr("download_ms", raw.download_ms);
  j.Arr("download_seg", raw.download_seg);
  j.Arr("ping_us", raw.ping_us);
  j.Arr("gen_lag_ms", raw.gen_lag_ms);
  j.Arr("op_cpu_ms", raw.op_cpu_ms);
  j.Arr("window_wall_s", raw.window_wall_s);
  if (trace) {
    j.Open("layers");
    for (const auto& [k, v] : raw.layers) j.Num(k, v);
    j.Close();
    j.Open("ledger");
    std::map<std::string, double> rows;
    for (const auto& [k, v] : raw.ledger_rows) rows[k] += v;
    for (const auto& [k, v] : rows) j.Num(k, v);
    j.Close();
    j.Num("ledger_e2e_s", raw.ledger_e2e_s);
    j.Num("ledger_sum_s", raw.ledger_sum_s);
    j.Arr("traced_e2e", raw.traced_e2e);
    j.Arr("untraced_e2e", raw.untraced_e2e);
  }
  std::printf("%s\n", j.Finish().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
