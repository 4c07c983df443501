#ifndef AIDA_UTIL_SERIALIZE_H_
#define AIDA_UTIL_SERIALIZE_H_

#include <string>

#include "util/status.h"

namespace aida::util {

/// Writes `data` to `path`, replacing any existing file. The bytes go to
/// a uniquely named sibling file first, which is then renamed over
/// `path`, so the old file is never truncated in place: a process that
/// has it mmap'd (a live KB generation) keeps reading intact bytes. The
/// sibling is created with the default mode (0666 less the umask) and
/// removed again on any failure.
Status WriteFile(const std::string& path, const std::string& data);

/// Reads the full contents of `path`.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace aida::util

#endif  // AIDA_UTIL_SERIALIZE_H_
