#include "host_speed.h"

#include <sched.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "tracing.h"

namespace perfbench {

namespace {

// Keeps the kernel's result observable so the loop is not optimized away.
volatile std::uint32_t g_sink = 0;

// Table lookups, dependent integer arithmetic and unpredictable branches
// over a 256 KiB table: the same kind of work as the simulator's cache
// models, with a fixed instruction stream.
double reference_kernel() {
  std::vector<std::uint32_t> table(1 << 16);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(i * 2654435761U);
  }
  const std::int64_t start = now_ns();
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 1'500'000; ++i) {
    x = table[(x ^ i) & 0xffffU] + (x >> 3) + i;
    if ((x & 1U) != 0) {
      x ^= 0x9e3779b9U;
    } else {
      table[x & 0xffffU] = x;
    }
  }
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  g_sink = x;
  return seconds;
}

}  // namespace

void pin_to_cpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) <= count) {
    return;
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  (void)sched_setaffinity(0, sizeof pinned, &pinned);
}

double reference_seconds(int threads) {
  std::vector<double> seconds(static_cast<std::size_t>(threads));
  std::vector<std::jthread> workers;  // joined on every exit path
  for (int t = 1; t < threads; ++t) {
    workers.emplace_back([&seconds, t] {
      seconds[static_cast<std::size_t>(t)] = reference_kernel();
    });
  }
  seconds[0] = reference_kernel();
  workers.clear();
  double sum = 0;
  for (const double s : seconds) {
    sum += s;
  }
  return sum / static_cast<double>(threads);
}

}  // namespace perfbench
