//===- Timer.h - Wall-clock timing helpers ----------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal steady-clock timer used for analysis timing and bench tables.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_TIMER_H
#define CSC_SUPPORT_TIMER_H

#include <chrono>

namespace csc {

/// Measures elapsed wall-clock time since construction or the last reset().
class Timer {
public:
  Timer() : Start(std::chrono::steady_clock::now()) {}

  /// Restarts the measurement window.
  void reset() { Start = std::chrono::steady_clock::now(); }

  /// Milliseconds elapsed since construction / last reset.
  double elapsedMs() const {
    auto Now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(Now - Start).count();
  }

private:
  std::chrono::steady_clock::time_point Start;
};

} // namespace csc

#endif // CSC_SUPPORT_TIMER_H
