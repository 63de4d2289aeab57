// Per-layer time ledger computed from the program's own trace export.
//
// The benchmark turns tracing on around a measured section, reads the
// Chrome-trace JSON that obs::TraceToJson() produces, and attributes the
// section's wall time to span names by SELF time: a span's duration minus the
// part of its interval covered by its child spans. Task-pool chunk spans are
// folded into their parent (they subdivide the parent's work, they are not a
// layer), and the structural container spans named by the caller (the update
// window, a refresh session, a recovery batch) are not rows of their own: time
// they cover that no layer span covers is reported as "unattributed".
//
// Reconciliation: when spans nest properly on the control thread, the sum of
// all self times equals the union of all span intervals, so
//   sum(self) + (section wall - covered) == section wall.
// Overlapping siblings or a child escaping its parent break the equality; the
// driver reports the residual and gates on it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string cat;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;  // relative to the first event of the export
  std::uint64_t wall_ns = 0;
};

struct TraceDigest {
  std::vector<SpanRecord> spans;
  std::uint64_t net_sends = 0;  // "net.send" instant events
};

// Parses the one-event-per-line export of obs::TraceToJson().
TraceDigest ParseTrace(const std::string& json);

struct Ledger {
  std::map<std::string, std::uint64_t> self_ns;  // span name -> self time
  std::uint64_t covered_ns = 0;  // union of every ledger span's interval
  std::uint64_t sum_self_ns() const;
};

Ledger BuildLedger(const TraceDigest& trace,
                   const std::set<std::string>& containers);

// Adds `other` into `into` (rows and coverage).
void Accumulate(Ledger& into, const Ledger& other);

}  // namespace perfbench
