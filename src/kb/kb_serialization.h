#ifndef AIDA_KB_KB_SERIALIZATION_H_
#define AIDA_KB_KB_SERIALIZATION_H_

#include <memory>
#include <string>

#include "kb/knowledge_base.h"
#include "util/status.h"

namespace aida::kb {

/// Loads a knowledge base file: the one loader every caller (the CLI,
/// SnapshotRegistry::ReloadFromFile, the serving benchmark) goes through,
/// so none of them names the on-disk format. Files are flat snapshots
/// (kb/flat/flat_snapshot.h, written by flat::SaveFlatSnapshot), mmap'd
/// and served zero-copy. A missing, truncated or corrupt file, or one in
/// any other format, yields an error Status.
util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBase(
    const std::string& path);

}  // namespace aida::kb

#endif  // AIDA_KB_KB_SERIALIZATION_H_
