// Fuzz target for the flat (mmap-able) KB snapshot loader, the one KB
// file format and a hot-reload surface: SnapshotRegistry
// maps these bytes straight into a serving process, and the loader's
// views alias the input buffer directly, so an unvalidated offset or
// hash slot would be an out-of-bounds read in production. Contract:
//
//   * arbitrary bytes either load or come back as an error Status —
//     never a crash, check failure, or sanitizer report;
//   * any accepted payload re-serializes into a canonical buffer that
//     loads again and re-serializes to the same bytes (canonicalization
//     is a fixed point; the input itself may differ in reserved fields,
//     padding, or section-table order and still be valid).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "kb/flat/flat_snapshot.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  auto loaded = aida::kb::flat::LoadFlatSnapshotFromString(input);
  if (!loaded.ok()) return 0;  // clean rejection is the expected path

  const aida::kb::KnowledgeBase& kb = **loaded;
  std::string canonical = aida::kb::flat::SerializeFlatSnapshot(kb);
  auto reloaded = aida::kb::flat::LoadFlatSnapshotFromString(canonical);
  AIDA_CHECK(reloaded.ok(), "accepted payload failed to reload: %s",
             reloaded.status().ToString().c_str());
  AIDA_CHECK((*reloaded)->entity_count() == kb.entity_count(),
             "entity count diverged across round-trip: %zu vs %zu",
             (*reloaded)->entity_count(), kb.entity_count());
  AIDA_CHECK(aida::kb::flat::SerializeFlatSnapshot(**reloaded) == canonical,
             "flat canonicalization is not a fixed point");
  return 0;
}
