// Host-speed reference. The benchmark shares a virtual machine's physical
// cores with other tenants, and their load changes how fast every
// instruction runs by up to a quarter over minutes. Every timed section is
// therefore bracketed by a fixed integer kernel that does not touch the
// library, and reported times are scaled to what they would have been at
// the reference kernel's nominal duration.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

namespace perfbench {

/// Duration of the reference kernel on an uncontended core of the host the
/// benchmark was calibrated on (Xeon, 4 vCPUs under KVM, GCC 12 -O3).
inline constexpr double kNominalReferenceSeconds = 0.016;

/// Restricts the process to the last `count` CPUs it may run on, so the
/// reference kernel measures the same cores the cells run on. Does nothing
/// when the process may use no more than `count` CPUs.
void pin_to_cpus(int count);

/// Runs the reference kernel on `threads` threads at once and returns the
/// mean per-thread duration in seconds.
[[nodiscard]] double reference_seconds(int threads);

/// `seconds` measured while the reference kernel took `reference` seconds,
/// scaled to the nominal reference duration.
[[nodiscard]] inline double at_nominal_speed(double seconds,
                                             double reference) {
  return seconds * kNominalReferenceSeconds / reference;
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
