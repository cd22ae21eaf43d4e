#include "obs/ledger.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace pd::obs {

namespace {

constexpr const char* kKindNames[kLedgerKinds] = {
    "core", "dma", "nic", "link", "uplink", "pool", "queue"};

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool* first) {
  if (!*first) out += ',';
  *first = false;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
  out += buf;
}

void append_kv_i(std::string& out, const char* key, std::int64_t v,
                 bool* first) {
  if (!*first) out += ',';
  *first = false;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, v);
  out += buf;
}

void append_kv_s(std::string& out, const char* key, std::string_view v,
                 bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":\"";
  out.append(v);  // resource/kind names: no JSON metacharacters by design
  out += '"';
}

}  // namespace

const char* to_string(LedgerKind kind) {
  return kKindNames[static_cast<std::uint8_t>(kind)];
}

void Ledger::on_busy(std::string_view resource, const sim::ProfileFrame& frame,
                     sim::TimePoint submitted, sim::TimePoint begin,
                     sim::Duration scaled_ns, std::uint64_t bytes) {
  // DMA engines are the only byte-denominated BusyObserver sources; they
  // are named "<node>/dma" by the DPU model.
  const LedgerKind kind =
      resource.ends_with("/dma") ? LedgerKind::kDma : LedgerKind::kCore;
  const bool waited = enabled_ && begin > submitted;
  if (scaled_ns <= 0 && !waited) return;
  // The queue wait lands in the same framed cell; the profile reads only
  // busy time, the reports sum the frame away.
  Totals& c =
      cell(kind, resource, frame.tenant, frame.component, frame.detail);
  c.busy_ns += static_cast<std::uint64_t>(scaled_ns);
  c.bytes += bytes;
  if (!enabled_) return;
  // The submit event is the earliest origin any future wait at this
  // resource can have, and the latest the prune clock may advance to: a
  // later job can still be submitted (and start waiting) before this one's
  // start time, so the clock must not run ahead to `begin`.
  Live& lv = live(kind, resource);
  lv.clock = std::max(lv.clock, submitted);
  if (waited) {
    c.wait_ns += static_cast<std::uint64_t>(begin - submitted);
    blame(lv, kind, resource, frame.tenant, submitted, begin);
  }
  if (scaled_ns > 0) {
    lv.segments.push_back(Segment{begin, begin + scaled_ns, frame.tenant});
  }
  prune(lv);
}

Ledger::Totals& Ledger::cell(LedgerKind kind, std::string_view resource,
                             std::int64_t tenant, std::string_view component,
                             std::string_view detail) {
  const CellView key{static_cast<std::uint8_t>(kind), resource, tenant,
                     component, detail};
  auto it = cells_.lower_bound(key);
  if (it == cells_.end() || cells_.key_comp()(key, it->first)) {
    it = cells_.emplace_hint(
        it, CellKey{key.kind, std::string(resource), tenant,
                    std::string(component), std::string(detail)},
        Totals{});
  }
  return it->second;
}

Ledger::Live& Ledger::live(LedgerKind kind, std::string_view resource) {
  return live_[{static_cast<std::uint8_t>(kind), std::string(resource)}];
}

void Ledger::prune(Live& lv) {
  // A segment can still be blamed only while some future wait window may
  // overlap it. Wait origins never precede the resource's event clock or
  // the oldest open queue entry, so everything ending at or before that
  // floor is evidence nobody will ever consult again.
  sim::TimePoint floor = lv.clock;
  for (const auto& [tenant, dq] : lv.open) {
    if (!dq.empty()) floor = std::min(floor, dq.front());
  }
  while (!lv.segments.empty() && lv.segments.front().end <= floor) {
    lv.segments.pop_front();
  }
}

void Ledger::occupy(LedgerKind kind, std::string_view resource,
                    std::int64_t tenant, sim::TimePoint begin,
                    sim::TimePoint end, sim::TimePoint ref_now) {
  if (!enabled_ || end <= begin) return;
  cell(kind, resource, tenant).busy_ns +=
      static_cast<std::uint64_t>(end - begin);
  Live& lv = live(kind, resource);
  lv.clock = std::max(lv.clock, ref_now);
  lv.segments.push_back(Segment{begin, end, tenant});
  prune(lv);
}

void Ledger::add_bytes(LedgerKind kind, std::string_view resource,
                       std::int64_t tenant, std::uint64_t bytes) {
  if (!enabled_ || bytes == 0) return;
  cell(kind, resource, tenant).bytes += bytes;
}

void Ledger::wait(LedgerKind kind, std::string_view resource,
                  std::int64_t tenant, sim::TimePoint begin,
                  sim::TimePoint end) {
  if (!enabled_ || end <= begin) return;
  cell(kind, resource, tenant).wait_ns +=
      static_cast<std::uint64_t>(end - begin);
  Live& lv = live(kind, resource);
  lv.clock = std::max(lv.clock, begin);
  blame(lv, kind, resource, tenant, begin, end);
  prune(lv);
}

void Ledger::blame(const Live& lv, LedgerKind kind, std::string_view resource,
                   std::int64_t tenant, sim::TimePoint begin,
                   sim::TimePoint end) {
  const auto k = static_cast<std::uint8_t>(kind);
  // Walk the occupancy timeline in event order, charging overlap with the
  // wait window until the whole wait is covered. For serializing FIFO
  // resources the segments tile the window exactly; the cap and the
  // self-blamed remainder make the attribution exact regardless.
  auto remaining = static_cast<std::uint64_t>(end - begin);
  for (const Segment& s : lv.segments) {
    if (remaining == 0) break;
    if (s.end <= begin || s.begin >= end) continue;
    const sim::TimePoint b = std::max(s.begin, begin);
    const sim::TimePoint e = std::min(s.end, end);
    const auto take =
        std::min(static_cast<std::uint64_t>(e - b), remaining);
    blame_[BlameKey{k, std::string(resource), s.tenant, tenant}] += take;
    remaining -= take;
  }
  if (remaining > 0) {
    blame_[BlameKey{k, std::string(resource), tenant, tenant}] += remaining;
  }
}

void Ledger::queue_enter(LedgerKind kind, std::string_view resource,
                         std::int64_t tenant, sim::TimePoint now) {
  if (!enabled_) return;
  Live& lv = live(kind, resource);
  lv.clock = std::max(lv.clock, now);
  lv.open[tenant].push_back(now);
}

void Ledger::queue_exit(LedgerKind kind, std::string_view resource,
                        std::int64_t tenant, sim::TimePoint now) {
  if (!enabled_) return;
  Live& lv = live(kind, resource);
  auto it = lv.open.find(tenant);
  if (it == lv.open.end() || it->second.empty()) return;
  const sim::TimePoint entered = it->second.front();
  it->second.pop_front();
  wait(kind, resource, tenant, entered, now);
}

void Ledger::add_slot_ns(std::string_view resource, std::int64_t tenant,
                         std::uint64_t slot_ns, std::uint64_t footprint_bytes) {
  if (!enabled_ || (slot_ns == 0 && footprint_bytes == 0)) return;
  Totals& c = cell(LedgerKind::kPool, resource, tenant);
  c.busy_ns += slot_ns;
  c.bytes += footprint_bytes;
}

Ledger::Totals Ledger::totals() const {
  Totals t;
  for (const auto& [key, c] : cells_) t.add(c);
  return t;
}

Ledger::Totals Ledger::totals(LedgerKind kind) const {
  Totals t;
  const auto k = static_cast<std::uint8_t>(kind);
  for (const auto& [key, c] : cells_) {
    if (key.kind == k) t.add(c);
  }
  return t;
}

std::uint64_t Ledger::busy_ns(LedgerKind kind, std::int64_t tenant) const {
  std::uint64_t total = 0;
  const auto k = static_cast<std::uint8_t>(kind);
  for (const auto& [key, c] : cells_) {
    if (key.kind == k && key.tenant == tenant) total += c.busy_ns;
  }
  return total;
}

std::uint64_t Ledger::wait_ns(LedgerKind kind, std::int64_t tenant) const {
  std::uint64_t total = 0;
  const auto k = static_cast<std::uint8_t>(kind);
  for (const auto& [key, c] : cells_) {
    if (key.kind == k && key.tenant == tenant) total += c.wait_ns;
  }
  return total;
}

std::uint64_t Ledger::bytes(LedgerKind kind, std::int64_t tenant) const {
  std::uint64_t total = 0;
  const auto k = static_cast<std::uint8_t>(kind);
  for (const auto& [key, c] : cells_) {
    if (key.kind == k && key.tenant == tenant) total += c.bytes;
  }
  return total;
}

std::uint64_t Ledger::blame_ns(std::int64_t aggressor,
                               std::int64_t victim) const {
  std::uint64_t total = 0;
  for (const auto& [key, ns] : blame_) {
    if (key.aggressor == aggressor && key.victim == victim) total += ns;
  }
  return total;
}

std::vector<Ledger::BlameRow> Ledger::blame_rows() const {
  std::map<std::tuple<std::uint8_t, std::int64_t, std::int64_t>, std::uint64_t>
      agg;
  for (const auto& [key, ns] : blame_) {
    agg[{key.kind, key.aggressor, key.victim}] += ns;
  }
  std::vector<BlameRow> rows;
  rows.reserve(agg.size());
  for (const auto& [key, ns] : agg) {
    rows.push_back(BlameRow{static_cast<LedgerKind>(std::get<0>(key)),
                            std::get<1>(key), std::get<2>(key), ns});
  }
  std::sort(rows.begin(), rows.end(), [](const BlameRow& a, const BlameRow& b) {
    if (a.ns != b.ns) return a.ns > b.ns;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.aggressor != b.aggressor) return a.aggressor < b.aggressor;
    return a.victim < b.victim;
  });
  return rows;
}

std::int64_t Ledger::top_aggressor(std::int64_t victim) const {
  std::map<std::int64_t, std::uint64_t> per_aggressor;
  for (const auto& [key, ns] : blame_) {
    if (key.victim != victim) continue;
    if (key.aggressor == victim || key.aggressor < 0) continue;
    per_aggressor[key.aggressor] += ns;
  }
  std::int64_t best = -1;
  std::uint64_t best_ns = 0;
  for (const auto& [aggressor, ns] : per_aggressor) {
    if (ns > best_ns) {  // ties keep the smaller tenant id (map order)
      best = aggressor;
      best_ns = ns;
    }
  }
  return best;
}

template <class Fn>
void Ledger::for_each_row(Fn&& fn) const {
  for (auto it = cells_.begin(); it != cells_.end();) {
    const CellKey& row = it->first;
    Totals t;
    for (; it != cells_.end() && it->first.kind == row.kind &&
           it->first.resource == row.resource &&
           it->first.tenant == row.tenant;
         ++it) {
      t.add(it->second);
    }
    fn(row, t);
  }
}

template <class Fn>
void Ledger::for_each_profile_cell(Fn&& fn) const {
  for (const auto& [key, c] : cells_) {
    if (!key.component.empty() && c.busy_ns > 0) fn(key, c.busy_ns);
  }
}

std::uint64_t Ledger::profile_total_ns() const {
  return profile_prefix_ns("");
}

std::uint64_t Ledger::profile_ns(std::string_view resource) const {
  std::uint64_t total = 0;
  for_each_profile_cell([&](const CellKey& key, std::uint64_t ns) {
    if (key.resource == resource) total += ns;
  });
  return total;
}

std::uint64_t Ledger::profile_prefix_ns(std::string_view prefix) const {
  std::uint64_t total = 0;
  for_each_profile_cell([&](const CellKey& key, std::uint64_t ns) {
    if (key.resource.starts_with(prefix)) total += ns;
  });
  return total;
}

void Ledger::write_collapsed(const std::string& path) const {
  // Stacks sort as whole strings ("cpu/10;..." before "cpu/1;..."), which
  // is not cell-key order: fold into a string-keyed map first.
  std::map<std::string, std::uint64_t> stacks;
  for_each_profile_cell([&](const CellKey& key, std::uint64_t ns) {
    std::string stack = key.resource;
    stack += ';';
    stack += key.component;
    stack += ";tenant:";
    stack += key.tenant < 0 ? "-" : std::to_string(key.tenant);
    stack += ';';
    stack += key.detail.empty() ? "-" : key.detail;
    stacks[stack] += ns;
  });
  std::ofstream f(path);
  PD_CHECK(f.good(), "cannot open " << path << " for writing");
  for (const auto& [stack, ns] : stacks) f << stack << ' ' << ns << '\n';
}

void Ledger::export_profile(Registry& registry) const {
  // Resources aggregate away: the registry summary answers "who burned the
  // CPU" per (component, tenant); the per-core split stays in the
  // collapsed-stack export.
  std::map<std::string, std::uint64_t> by_frame;
  for_each_profile_cell([&](const CellKey& key, std::uint64_t ns) {
    by_frame["component=" + key.component + ",tenant=" +
             (key.tenant < 0 ? "-" : std::to_string(key.tenant))] += ns;
  });
  for (const auto& [labels, ns] : by_frame) {
    registry.counter("profile.busy_ns", labels).set(ns);
  }
  registry.counter("profile.total_busy_ns").set(profile_total_ns());
}

void Ledger::export_metrics(Registry& registry) const {
  std::map<std::pair<std::uint8_t, std::int64_t>, Totals> rollup;
  for (const auto& [key, c] : cells_) rollup[{key.kind, key.tenant}].add(c);
  for (const auto& [key, t] : rollup) {
    const std::string labels =
        std::string("kind=") + kKindNames[key.first] +
        ",tenant=" + std::to_string(key.second);
    if (t.busy_ns > 0) registry.counter("ledger.busy_ns", labels).inc(t.busy_ns);
    if (t.wait_ns > 0) registry.counter("ledger.wait_ns", labels).inc(t.wait_ns);
    if (t.bytes > 0) registry.counter("ledger.bytes", labels).inc(t.bytes);
  }
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> matrix;
  for (const auto& [key, ns] : blame_) {
    matrix[{key.aggressor, key.victim}] += ns;
  }
  for (const auto& [key, ns] : matrix) {
    registry
        .counter("ledger.blame_ns",
                 "aggressor=" + std::to_string(key.first) +
                     ",victim=" + std::to_string(key.second))
        .inc(ns);
  }
}

std::string Ledger::to_json() const {
  std::string out = "{\"ledger\":{";
  {
    const Totals t = totals();
    out += "\"totals\":{";
    bool first = true;
    append_kv(out, "busy_ns", t.busy_ns, &first);
    append_kv(out, "wait_ns", t.wait_ns, &first);
    append_kv(out, "bytes", t.bytes, &first);
    out += "},";
  }
  {
    std::map<std::pair<std::uint8_t, std::int64_t>, Totals> rollup;
    for (const auto& [key, c] : cells_) rollup[{key.kind, key.tenant}].add(c);
    out += "\"tenants\":[";
    bool first_row = true;
    for (const auto& [key, t] : rollup) {
      if (!first_row) out += ',';
      first_row = false;
      out += '{';
      bool first = true;
      append_kv_s(out, "kind", kKindNames[key.first], &first);
      append_kv_i(out, "tenant", key.second, &first);
      append_kv(out, "busy_ns", t.busy_ns, &first);
      append_kv(out, "wait_ns", t.wait_ns, &first);
      append_kv(out, "bytes", t.bytes, &first);
      out += '}';
    }
    out += "],";
  }
  {
    out += "\"resources\":[";
    bool first_row = true;
    for_each_row([&](const CellKey& key, const Totals& c) {
      if (!first_row) out += ',';
      first_row = false;
      out += '{';
      bool first = true;
      append_kv_s(out, "kind", kKindNames[key.kind], &first);
      append_kv_s(out, "resource", key.resource, &first);
      append_kv_i(out, "tenant", key.tenant, &first);
      append_kv(out, "busy_ns", c.busy_ns, &first);
      append_kv(out, "wait_ns", c.wait_ns, &first);
      append_kv(out, "bytes", c.bytes, &first);
      out += '}';
    });
    out += "],";
  }
  {
    out += "\"blame\":[";
    bool first_row = true;
    for (const auto& [key, ns] : blame_) {
      if (!first_row) out += ',';
      first_row = false;
      out += '{';
      bool first = true;
      append_kv_s(out, "kind", kKindNames[key.kind], &first);
      append_kv_s(out, "resource", key.resource, &first);
      append_kv_i(out, "aggressor", key.aggressor, &first);
      append_kv_i(out, "victim", key.victim, &first);
      append_kv(out, "ns", ns, &first);
      out += '}';
    }
    out += "],";
  }
  {
    std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> matrix;
    for (const auto& [key, ns] : blame_) {
      matrix[{key.aggressor, key.victim}] += ns;
    }
    out += "\"blame_matrix\":[";
    bool first_row = true;
    for (const auto& [key, ns] : matrix) {
      if (!first_row) out += ',';
      first_row = false;
      out += '{';
      bool first = true;
      append_kv_i(out, "aggressor", key.first, &first);
      append_kv_i(out, "victim", key.second, &first);
      append_kv(out, "ns", ns, &first);
      out += '}';
    }
    out += "]";
  }
  out += "}}\n";
  return out;
}

std::string Ledger::to_csv() const {
  std::string out =
      "record,kind,resource,tenant,aggressor,victim,busy_ns,wait_ns,bytes\n";
  char buf[128];
  for_each_row([&](const CellKey& key, const Totals& c) {
    std::snprintf(buf, sizeof(buf),
                  ",%" PRId64 ",,,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  key.tenant, c.busy_ns, c.wait_ns, c.bytes);
    out += "cell,";
    out += kKindNames[key.kind];
    out += ',';
    out += key.resource;
    out += buf;
  });
  for (const auto& [key, ns] : blame_) {
    std::snprintf(buf, sizeof(buf),
                  ",,%" PRId64 ",%" PRId64 ",,%" PRIu64 ",\n", key.aggressor,
                  key.victim, ns);
    out += "blame,";
    out += kKindNames[key.kind];
    out += ',';
    out += key.resource;
    out += buf;
  }
  return out;
}

std::string Ledger::table() const {
  constexpr std::size_t kMaxRows = 12;
  std::string out;
  out += "  interference (queueing imposed, aggressor -> victim)\n";
  out += "  aggressor   victim      kind     blame_us\n";
  std::size_t shown = 0;
  char buf[96];
  for (const BlameRow& r : blame_rows()) {
    if (r.aggressor == r.victim) continue;  // self-queueing: report last
    if (shown++ >= kMaxRows) break;
    std::snprintf(buf, sizeof(buf), "  %-11" PRId64 " %-11" PRId64 " %-8s %12.1f\n",
                  r.aggressor, r.victim, to_string(r.kind),
                  static_cast<double>(r.ns) / 1e3);
    out += buf;
  }
  if (shown == 0) out += "  (no cross-tenant interference recorded)\n";
  return out;
}

void Ledger::absorb(const Ledger& other) {
  for (const auto& [key, c] : other.cells_) cells_[key].add(c);
  for (const auto& [key, ns] : other.blame_) blame_[key] += ns;
}

void Ledger::reset() {
  cells_.clear();
  blame_.clear();
  live_.clear();
}

}  // namespace pd::obs
