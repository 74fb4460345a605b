#include "cells.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "sim/trace_io.h"
#include "trace/mapped_trace.h"

namespace perfbench {

namespace {

using psllc::Cycle;
using psllc::sim::RunMetrics;

class Fnv {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_integral_v<T>);
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (bits & 0xffU)) * 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  template <typename T>
  void add(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) {
      add(v);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// The parallel-engine diagnostics are zero under the default engine and
// may be removed with that engine; they are folded only while they exist
// and are nonzero, so their removal leaves every committed digest valid.
template <typename M>
void add_parallel_fields(Fnv& h, const M& m) {
  if constexpr (requires { m.parallel_segments; }) {
    if (m.parallel_segments != 0) {
      h.add(0x5e9U);
      h.add(m.parallel_segments);
    }
  }
  if constexpr (requires { m.parallel_reexecutions; }) {
    if (m.parallel_reexecutions != 0) {
      h.add(0x4e4U);
      h.add(m.parallel_reexecutions);
    }
  }
}

constexpr std::uint64_t kChunkOps = 4096;  // the replay kernel's chunk size

}  // namespace

std::uint64_t digest(const std::vector<RunMetrics>& cells) {
  Fnv h;
  h.add(cells.size());
  for (const RunMetrics& m : cells) {
    h.add(m.completed);
    h.add(m.end_cycle);
    h.add(m.makespan);
    h.add(m.observed_wcl);
    h.add(m.analytical_wcl);
    h.add(m.observed_transient_wcl);
    h.add(m.transient_analytical_wcl);
    h.add(m.llc_requests);
    h.add(m.per_core_finish);
    h.add(m.per_core_l1_hits);
    h.add(m.per_core_l2_hits);
    h.add(m.per_core_misses);
    const psllc::llc::LlcStats& s = m.llc_stats;
    for (const std::int64_t v :
         {s.hit_presentations, s.blocked_presentations, s.fills,
          s.evictions_started, s.immediate_frees, s.voluntary_writebacks,
          s.freeing_writebacks, s.steals, s.shared_write_flags,
          s.repartitions, s.drain_writebacks, s.drain_back_invals}) {
      h.add(v);
    }
    const psllc::mem::MemoryCounters& c = m.memory;
    for (const std::int64_t v :
         {c.reads, c.writes, c.row_hits, c.row_misses, c.queued_writes,
          c.drained_writes, c.write_stalls, c.max_queue_depth,
          c.max_latency}) {
      h.add(v);
    }
    h.add(m.dram_reads);
    h.add(m.dram_writes);
    add_parallel_fields(h, m);
  }
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool cell_ok(const RunMetrics& m) {
  // A dynamic partition program's observed WCL includes requests in flight
  // across a mode switch, which only the transient bound covers (the rule
  // sim::evaluate_cell scores by); static programs have transient == steady.
  const Cycle bound = std::max(m.analytical_wcl, m.transient_analytical_wcl);
  if (!m.completed || m.observed_wcl > bound) {
    return false;
  }
  return m.observed_transient_wcl == psllc::kNoCycle ||
         m.observed_transient_wcl <= m.transient_analytical_wcl;
}

LayerCounts count_layers(const Pass& pass) {
  LayerCounts n;
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const RunMetrics& m = pass.cells[i];
    for (std::size_t c = 0; c < m.per_core_l1_hits.size(); ++c) {
      n.l1_hits += m.per_core_l1_hits[c];
      n.l2_hits += m.per_core_l2_hits[c];
      n.misses += m.per_core_misses[c];
    }
    n.backend_reads += m.memory.reads;
    n.backend_writes += m.memory.writes;
    n.write_stalls += m.memory.write_stalls;
    n.max_queue_depth = std::max(n.max_queue_depth, m.memory.max_queue_depth);
    if (i < pass.slot_widths.size() && pass.slot_widths[i] > 0) {
      n.slots += m.end_cycle / pass.slot_widths[i];
    }
    const psllc::llc::LlcStats& s = m.llc_stats;
    n.presentations +=
        s.hit_presentations + s.fills + s.blocked_presentations;
    n.writebacks += s.voluntary_writebacks + s.freeing_writebacks;
    n.llc_requests += m.llc_requests;
    n.blocked += s.blocked_presentations;
    n.evictions += s.evictions_started;
    n.freeing_writebacks += s.freeing_writebacks;
    n.voluntary_writebacks += s.voluntary_writebacks;
    n.steals += s.steals;
    n.repartitions += s.repartitions;
    n.drain_writebacks += s.drain_writebacks;
  }
  return n;
}

void probe_private(const psllc::core::Trace& trace,
                   const psllc::mem::PrivateCacheConfig& config,
                   std::uint64_t seed, Tracer& tracer, std::int64_t cell) {
  ScopedSpan span(&tracer, "mem.private", cell);
  psllc::mem::PrivateCacheHierarchy caches(config, seed);
  for (const psllc::core::MemOp& op : trace) {
    if (caches.access(op.addr, op.type) == psllc::mem::HitLevel::kMiss) {
      (void)caches.fill(op.addr, op.type, psllc::is_write(op.type));
    }
  }
  span.set_work(static_cast<std::int64_t>(trace.size()));
}

psllc::core::Trace load_traced(const std::string& path, Tracer* tracer,
                               std::int64_t cell, std::uint64_t parent) {
  ScopedSpan span(tracer, "trace.load", cell, parent);
  psllc::core::Trace trace = psllc::sim::read_trace_file(path);
  span.set_work(static_cast<std::int64_t>(trace.size()));
  return trace;
}

void probe_decode(const std::string& path, Tracer& tracer, std::int64_t cell) {
  ScopedSpan span(&tracer, "trace.decode", cell);
  const psllc::trace::MappedTrace view(path);
  std::vector<psllc::core::MemOp> chunk(kChunkOps);
  for (std::uint64_t first = 0; first < view.size(); first += kChunkOps) {
    const std::uint64_t count = std::min(kChunkOps, view.size() - first);
    view.decode_batch(first, count, 0, chunk.data());
  }
  span.set_work(static_cast<std::int64_t>(view.size()));
}

}  // namespace perfbench
