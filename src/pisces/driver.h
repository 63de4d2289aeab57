// Experiment driver: the automated benchmarking system of paper SectionVI-B.
//
// RunRefreshExperiment stands in for the paper's driver machine: it builds a
// cluster for one parameter configuration, uploads a synthetic file, runs a
// full proactive update window (rerandomization plus the complete restart
// schedule with recovery), verifies the file still downloads bit-exactly,
// and reports measured CPU/bytes plus instance-modeled time and dollar cost.
// Every figure bench is a sweep of this function.
#pragma once

#include "pisces/cluster.h"
#include "pisces/metrics.h"
#include "pisces/recorder.h"

namespace pisces {

struct ExperimentConfig {
  pss::Params params;
  std::size_t file_bytes = 100 * 1024;
  std::uint64_t seed = 42;
  InstanceType instance = InstanceType::kMedium;
  double build_machine_ecu = 25.0;
  bool encrypt_links = true;
  std::string schedule = "round-robin";
  net::NetworkModel net_model;
  bool run_recovery = true;  // false: measure rerandomization only
  // Worker threads for the global task pool (and the paper's per-host b).
  // 0 keeps the current pool and params.b untouched. Thread count never
  // changes any computed value -- only wall time (see docs/parallelism.md).
  std::size_t threads = 0;
};

struct ExperimentResult {
  pss::Params params;
  std::size_t file_bytes = 0;
  std::size_t file_blocks = 0;
  bool ok = false;

  std::size_t threads = 1;  // task-pool size the window ran with

  // Measured on the build machine (totals across all hosts).
  double cpu_rerand_s = 0;
  double cpu_recover_s = 0;
  // Wall-clock inside the same compute sections: shrinks with --threads
  // while the cpu_* totals stay constant, so wall/cpu exposes the speedup.
  double wall_rerand_s = 0;
  double wall_recover_s = 0;
  std::uint64_t bytes_rerand = 0;
  std::uint64_t bytes_recover = 0;
  std::uint64_t msgs_rerand = 0;
  std::uint64_t msgs_recover = 0;
  std::uint64_t sweeps_rerand = 0;
  std::uint64_t sweeps_recover = 0;

  // Modeled per-server averages on the configured instance (paper: "average
  // time spent on each server").
  double compute_rerand_s = 0;
  double compute_recover_s = 0;
  double send_rerand_s = 0;
  double send_recover_s = 0;

  double refresh_time_s = 0;  // rerandomization only (compute + send)
  double window_time_s = 0;   // rerandomization + full recovery schedule
  double cost_dedicated = 0;  // one update window, all n machines
  double cost_spot = 0;

  // Field-substrate counters for the window (kernel dispatch width, lazy-dot
  // reductions, weight-cache hits/misses); see pisces/metrics.h.
  SubstrateMetrics substrate;

  // Robustness counters for the window (zero on a fault-free run).
  std::uint64_t deals_excluded = 0;
  std::uint64_t retries = 0;        // hypervisor round + client op retries
  std::uint64_t timeouts_fired = 0;
  std::uint64_t msgs_dropped = 0;   // fabric-level drops (faults + crashes)

  // Byzantine dispute counters for the window, read as registry deltas over
  // the byz.* namespace (all zero unless a ByzantinePlan is armed). Actions
  // are what the adversary did; detections are what the protocol caught.
  std::uint64_t byz_actions = 0;
  std::uint64_t byz_detections = 0;
  std::uint64_t byz_dealers_attributed = 0;
  std::uint64_t byz_survivors_suspected = 0;

  // Deployment-plane network counters for the window, read as registry
  // deltas over the net.* namespace. All zero on the SimNet substrate (the
  // async transport and the ProcessFleet own these counters; deadline
  // expiries are the ProcessFleet's bounded-delay waits that fired); nonzero
  // when the window drives real sockets in the same process.
  std::uint64_t net_reconnects = 0;
  std::uint64_t net_heartbeat_misses = 0;
  std::uint64_t net_deadline_expiries = 0;
  std::uint64_t net_backpressure_stalls = 0;
  std::uint64_t net_frames_dropped = 0;

  double WindowTimePerByte() const {
    return window_time_s / static_cast<double>(file_bytes);
  }
  double RerandTimePerByte() const {
    return refresh_time_s / static_cast<double>(file_bytes);
  }
  double TotalBytes() const {
    return static_cast<double>(bytes_rerand + bytes_recover);
  }
};

ExperimentResult RunRefreshExperiment(const ExperimentConfig& cfg);

// Columns shared by the figure benches' CSV output.
Recorder MakeExperimentRecorder();
void RecordExperiment(Recorder& rec, const std::string& series,
                      const ExperimentResult& r);

}  // namespace pisces
