#include "kb/kb_serialization.h"

#include "kb/flat/flat_snapshot.h"

namespace aida::kb {

util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBase(
    const std::string& path) {
  return flat::LoadFlatSnapshot(path);
}

}  // namespace aida::kb
