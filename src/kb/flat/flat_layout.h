#ifndef AIDA_KB_FLAT_FLAT_LAYOUT_H_
#define AIDA_KB_FLAT_FLAT_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace aida::kb::flat {

/// First four bytes of a flat snapshot.
inline constexpr uint32_t kFlatMagic = 0xA1DAF1A7;

/// Bumped whenever the section layout, the hash probing scheme, or the
/// derived-weight formulas change. A flat snapshot persists the finalized
/// arrays verbatim — derived weights included, nothing is recomputed on
/// load — so a loader must refuse files written by a different weighting
/// scheme rather than silently serving them.
inline constexpr uint32_t kFlatVersion = 1;

/// Every section payload starts on an 8-byte boundary (relative to the
/// file start) so u64/double arrays can be read in place from a
/// page-aligned mapping without misaligned access.
inline constexpr uint64_t kSectionAlignment = 8;

inline constexpr uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

/// Section identifiers. Values are part of the on-disk format; append
/// new ids, never renumber.
enum class SectionId : uint32_t {
  kMeta = 1,
  // Type taxonomy (materialized on load; small).
  kTaxonomyNameOffsets = 2,
  kTaxonomyNamePool = 3,
  kTaxonomyParents = 4,
  // Entity repository (materialized on load; small relative to features).
  kEntityNameOffsets = 5,
  kEntityNamePool = 6,
  kEntityAnchorCounts = 7,
  kEntityTypeOffsets = 8,
  kEntityTypes = 9,
  // Name dictionary, exact table (all surface names, sorted).
  kDictExactNameOffsets = 10,
  kDictExactNamePool = 11,
  kDictExactRanges = 12,
  kDictExactCandidates = 13,
  kDictExactSlots = 14,
  // Name dictionary, case-folded table (names longer than 3 chars).
  kDictFoldedNameOffsets = 15,
  kDictFoldedNamePool = 16,
  kDictFoldedRanges = 17,
  kDictFoldedCandidates = 18,
  kDictFoldedSlots = 19,
  // Keyphrase store: interned word vocabulary + lookup table.
  kWordOffsets = 20,
  kWordPool = 21,
  kWordSlots = 22,
  // Keyphrase store: phrase -> word-id sequences (CSR).
  kPhraseWordOffsets = 23,
  kPhraseWords = 24,
  // Keyphrase store: per-entity phrase associations (struct-of-arrays).
  kEntityPhraseOffsets = 25,
  kEntityPhraseIds = 26,
  kEntityPhraseCounts = 27,
  kEntityPhraseMi = 28,
  // Keyphrase store: per-entity distinct keywords + NPMI weights.
  kEntityWordOffsets = 29,
  kEntityWordIds = 30,
  kEntityWordNpmi = 31,
  // Keyphrase store: document frequencies.
  kPhraseDf = 32,
  kWordDf = 33,
  // Link graph (CSR, both directions).
  kInLinkOffsets = 34,
  kInLinkTargets = 35,
  kOutLinkOffsets = 36,
  kOutLinkTargets = 37,
};

struct FileHeader {
  uint32_t magic = kFlatMagic;
  uint32_t version = kFlatVersion;
  /// Total file size; must equal the mapped size exactly.
  uint64_t file_size = 0;
  uint64_t section_count = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(FileHeader) == 32);
static_assert(std::is_trivially_copyable_v<FileHeader>);

struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  /// Byte offset from the file start; kSectionAlignment-aligned.
  uint64_t offset = 0;
  uint64_t size = 0;
};
static_assert(sizeof(SectionEntry) == 24);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// Cross-check counts. Everything here is derivable from section sizes;
/// storing them once lets the loader verify every section against one
/// authoritative shape instead of trusting sizes to agree pairwise.
struct MetaSection {
  uint64_t entity_count = 0;
  uint64_t taxonomy_count = 0;
  uint64_t word_count = 0;
  uint64_t phrase_count = 0;
  /// Collection size N the keyphrase weights were computed against.
  uint64_t collection_size = 0;
  uint64_t exact_name_count = 0;
  uint64_t folded_name_count = 0;
  /// Total directed links (== out-link target count == in-link targets).
  uint64_t link_count = 0;
};
static_assert(sizeof(MetaSection) == 64);
static_assert(std::is_trivially_copyable_v<MetaSection>);

}  // namespace aida::kb::flat

#endif  // AIDA_KB_FLAT_FLAT_LAYOUT_H_
