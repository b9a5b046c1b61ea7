/// Control for discarded_status.cpp: the same calls with each result either
/// checked or discarded explicitly through a `(void)` cast. Must compile
/// cleanly.
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

bool freeCalls(int fd) {
  (void)flush(fd);
  return parse(fd).isOk();
}

void memberCalls(Sink& sink, Sink* ptr) {
  (void)sink.flush();
  (void)ptr->take();
}

void conditionalCalls(bool c, int fd) {
  if (c) (void)flush(fd);
  if (c) (void)parse(fd);
}

}  // namespace fixture
