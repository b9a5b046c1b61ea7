/// Must not compile. Every line ending in a `want: unused-result` comment
/// discards a support::Status or support::Outcome<T> in one of the
/// statement shapes a discard takes: a free call, a member call, and
/// `if (c) f();`. No helper below is itself [[nodiscard]], so the errors
/// come from the classes' own `class [[nodiscard]]` plus cpr_warnings'
/// -Werror=unused-result. Built only by the status_discard_compile_fail
/// ctest (tests/cmake/expect_compile_fail.cmake); voided_status.cpp is its
/// control.
#include "support/status.h"

namespace fixture {

using cpr::support::Outcome;
using cpr::support::Status;

Status flush(int fd) { return fd >= 0 ? Status::ok() : Status::failed(); }
Outcome<int> parse(int v) { return Outcome<int>(v); }

struct Sink {
  Status flush() { return Status::ok(); }
  Outcome<int> take() { return Outcome<int>(1); }
};

void freeCalls(int fd) {
  flush(fd);  // want: unused-result
  parse(fd);  // want: unused-result
}

void memberCalls(Sink& sink, Sink* ptr) {
  sink.flush();  // want: unused-result
  ptr->take();   // want: unused-result
}

void conditionalCalls(bool c, int fd) {
  if (c) flush(fd);  // want: unused-result
  if (c) parse(fd);  // want: unused-result
}

}  // namespace fixture
