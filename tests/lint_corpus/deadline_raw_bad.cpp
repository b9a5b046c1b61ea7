// lint-as: src/core/my_solver.cpp
// lint-expect: DEADLINE-RAW@10
#include <chrono>

// Argless clock polling in solver scope: the function below reads the
// wall clock directly instead of asking a composable support::Deadline
// whether the budget has expired.

bool pollWallClock(std::chrono::steady_clock::time_point until) {
  return std::chrono::steady_clock::now() >= until;
}
