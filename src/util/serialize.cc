#include "util/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace aida::util {

namespace {

bool WriteAll(int fd, const std::string& data) {
  const char* next = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, next, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    next += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

/// Creates a new, empty sibling of `path` that no other writer (thread
/// or process) holds; returns its descriptor, or -1.
int CreateSibling(const std::string& path, std::string* sibling) {
  static std::atomic<uint64_t> counter{0};
  // O_EXCL refuses a name left behind by a crashed writer; the next
  // counter value is then tried.
  for (int attempt = 0; attempt < 16; ++attempt) {
    *sibling = path + ".tmp-" + std::to_string(::getpid()) + "-" +
               std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    const int fd =
        ::open(sibling->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0 || errno != EEXIST) return fd;
  }
  return -1;
}

}  // namespace

Status WriteFile(const std::string& path, const std::string& data) {
  std::string sibling;
  const int fd = CreateSibling(path, &sibling);
  if (fd < 0) return Status::IoError("cannot open for write: " + path);
  const bool written = WriteAll(fd, data);
  const bool closed = ::close(fd) == 0;
  std::error_code error;
  if (written && closed) {
    std::filesystem::rename(sibling, path, error);
    if (!error) return Status::Ok();
  }
  std::error_code ignored;
  std::filesystem::remove(sibling, ignored);
  return Status::IoError(error ? "cannot replace " + path + ": " +
                                     error.message()
                               : "write failed: " + path);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return ss.str();
}

}  // namespace aida::util
