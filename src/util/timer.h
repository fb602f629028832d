// Wall-clock timing helpers used for the runtime-breakdown experiments
// (paper Figures 11 and 13).

#ifndef CEXTEND_UTIL_TIMER_H_
#define CEXTEND_UTIL_TIMER_H_

#include <time.h>

#include <chrono>

namespace cextend {

/// Monotonic stopwatch measuring elapsed seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU seconds the calling thread has used so far. Unlike wall time it does
/// not grow while the thread waits for a core, so a stage measured with it
/// reads the same on a busy machine; work the thread hands to a pool is not
/// in it.
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Adds the scope's wall time to an accumulator on destruction. Used to
/// attribute time to the stages reported in the paper's Figure 13.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* accumulator) : accumulator_(accumulator) {}
  ~ScopedTimer() { *accumulator_ += watch_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* accumulator_;
  Stopwatch watch_;
};

}  // namespace cextend

#endif  // CEXTEND_UTIL_TIMER_H_
