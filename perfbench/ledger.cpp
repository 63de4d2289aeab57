#include "ledger.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;  // [begin, end)

// Value text after `"key":` on one export line; empty when absent.
std::string Field(const std::string& line, const char* key) {
  const std::string tag = std::string("\"") + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t b = at + tag.size();
  if (b < line.size() && line[b] == '"') {
    const std::size_t e = line.find('"', b + 1);
    return line.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

std::uint64_t Hex(const std::string& s) {
  return s.empty() ? 0 : std::strtoull(s.c_str(), nullptr, 16);
}

// "123.456" microseconds (the exporter always prints three decimals) -> ns.
std::uint64_t MicrosToNs(const std::string& s) {
  const std::size_t dot = s.find('.');
  const std::uint64_t whole = std::strtoull(s.c_str(), nullptr, 10);
  const std::uint64_t frac =
      dot == std::string::npos ? 0 : std::strtoull(s.c_str() + dot + 1,
                                                   nullptr, 10);
  return whole * 1000 + frac;
}

// Length of the union of `iv` clipped to [lo, hi).
std::uint64_t UnionLength(std::vector<Interval> iv, std::uint64_t lo,
                          std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, cur_b = 0, cur_e = 0;
  bool open = false;
  for (auto [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (b >= e) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

}  // namespace

TraceDigest ParseTrace(const std::string& json) {
  TraceDigest out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t nl = json.find('\n', pos);
    if (nl == std::string::npos) nl = json.size();
    const std::string line = json.substr(pos, nl - pos);
    pos = nl + 1;
    const std::string ph = Field(line, "ph");
    if (ph == "i") {
      if (Field(line, "name") == "net.send") ++out.net_sends;
      continue;
    }
    if (ph != "X") continue;
    SpanRecord s;
    s.name = Field(line, "name");
    s.cat = Field(line, "cat");
    s.id = Hex(Field(line, "id"));
    s.parent = Hex(Field(line, "parent"));
    s.start_ns = MicrosToNs(Field(line, "ts"));
    s.wall_ns = std::strtoull(Field(line, "wall_ns").c_str(), nullptr, 10);
    out.spans.push_back(std::move(s));
  }
  return out;
}

std::uint64_t Ledger::sum_self_ns() const {
  std::uint64_t s = 0;
  for (const auto& [name, ns] : self_ns) s += ns;
  return s;
}

Ledger BuildLedger(const TraceDigest& trace,
                   const std::set<std::string>& containers) {
  const auto& spans = trace.spans;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  auto is_row = [&](const SpanRecord& s) {
    return s.cat != "pool" && containers.count(s.name) == 0;
  };
  // Nearest ancestor that is a ledger row (pool chunks and containers are
  // skipped over), or none.
  auto row_parent = [&](const SpanRecord& s) -> const SpanRecord* {
    std::uint64_t p = s.parent;
    while (p != 0) {
      auto it = by_id.find(p);
      if (it == by_id.end()) return nullptr;
      const SpanRecord& cand = spans[it->second];
      if (is_row(cand)) return &cand;
      p = cand.parent;
    }
    return nullptr;
  };

  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  std::vector<Interval> all;
  for (const SpanRecord& s : spans) {
    if (!is_row(s)) continue;
    const Interval iv{s.start_ns, s.start_ns + s.wall_ns};
    all.push_back(iv);
    if (const SpanRecord* p = row_parent(s)) children[p->id].push_back(iv);
  }

  Ledger out;
  for (const SpanRecord& s : spans) {
    if (!is_row(s)) continue;
    std::uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      covered = UnionLength(it->second, s.start_ns, s.start_ns + s.wall_ns);
    }
    out.self_ns[s.name] += s.wall_ns - covered;
  }
  out.covered_ns = UnionLength(std::move(all), 0, ~0ull);
  return out;
}

void Accumulate(Ledger& into, const Ledger& other) {
  for (const auto& [name, ns] : other.self_ns) into.self_ns[name] += ns;
  into.covered_ns += other.covered_ns;
}

}  // namespace perfbench
