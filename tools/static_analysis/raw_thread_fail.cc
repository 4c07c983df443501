// NEGATIVE CONTROL for lint_raw_thread.query — clang-query must report
// at least one match in this translation unit. It constructs and stores
// raw std::threads, the ownership shapes the lint forbids outside
// src/util/: such threads bypass WorkerPool shutdown ordering and can
// outlive a request's snapshot pin. If the lint stops matching this
// file, the gate is broken.
//
// Not part of any CMake target: only the analysis script touches it.

#include <thread>
#include <vector>

namespace {

// BUG (deliberate): a record owning a raw thread.
struct Poller {
  std::thread worker;
};

void FanOut() {
  // BUG (deliberate): raw thread construction and ad-hoc storage.
  std::vector<std::thread> threads;
  std::thread one([] {});
  threads.push_back(std::move(one));
  for (std::thread& thread : threads) {
    thread.join();
  }
}

}  // namespace

int main() {
  FanOut();
  Poller poller;
  return 0;
}
