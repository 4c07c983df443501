#ifndef AIDA_KB_FLAT_FLAT_SNAPSHOT_H_
#define AIDA_KB_FLAT_FLAT_SNAPSHOT_H_

#include <memory>
#include <string>
#include <string_view>

#include "kb/knowledge_base.h"
#include "util/status.h"

namespace aida::kb::flat {

/// Serializes a finalized knowledge base into the flat snapshot format:
/// a section table followed by the stores' flattened arrays, dumped
/// verbatim. Derived weights (priors, MI, NPMI, IDF inputs) are stored,
/// not recomputed on load, so a loaded snapshot answers every query with
/// exactly the bytes the writer's knowledge base would have produced.
std::string SerializeFlatSnapshot(const KnowledgeBase& kb);

/// Writes SerializeFlatSnapshot(kb) to `path`. The file is replaced, not
/// rewritten in place (util::WriteFile), so a generation still serving an
/// older snapshot mmap'd from `path` keeps reading the bytes it validated.
util::Status SaveFlatSnapshot(const KnowledgeBase& kb,
                              const std::string& path);

/// Zero-copy load: the bulk stores' views point straight into `data`,
/// which therefore must stay alive (and immutable) for the lifetime of
/// the returned knowledge base — `backing` is pinned on it to guarantee
/// that. `data.data()` must be 8-byte aligned (mmap and operator new
/// both qualify). Every array bound, offset table, id and hash slot is
/// validated before use; corrupt or truncated input yields an error
/// Status, never undefined behaviour or a process abort.
util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadFlatSnapshotFromBuffer(
    std::string_view data, std::shared_ptr<const void> backing);

/// Copies `data` into an owned, aligned buffer and loads from that. For
/// callers holding arbitrary byte strings (tests, fuzz targets).
util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadFlatSnapshotFromString(
    std::string_view data);

/// mmaps `path` and serves all queries directly out of the page cache.
util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadFlatSnapshot(
    const std::string& path);

}  // namespace aida::kb::flat

#endif  // AIDA_KB_FLAT_FLAT_SNAPSHOT_H_
