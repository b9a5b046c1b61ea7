// lint-as: tests/core_panel_kernel_test.cpp
// lint-expect: none
#include <stdexcept>

// THROW-BOUNDARY and CONTRACT-COVERAGE scope src/core/panel_kernel.{h,cpp}
// exactly: a test whose path merely contains "panel_kernel" may throw and
// reinterpret bytes like any other test.
int mustBePositive(int v) {
  if (v < 0) throw std::invalid_argument("negative");
  return v;
}

double punType(const unsigned char* bytes) {
  return *reinterpret_cast<const double*>(bytes);
}
