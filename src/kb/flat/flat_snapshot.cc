#include "kb/flat/flat_snapshot.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kb/flat/flat_hash.h"
#include "kb/flat/flat_layout.h"
#include "kb/flat/mmap_file.h"
#include "util/check.h"
#include "util/lifetime.h"
#include "util/serialize.h"

namespace aida::kb::flat {

namespace {

constexpr uint32_t kMaxSectionId =
    static_cast<uint32_t>(SectionId::kOutLinkTargets);
constexpr uint64_t kSectionTotal = kMaxSectionId;  // ids are dense from 1

// All counts an attacker could inflate are capped well below any point
// where (count + 1) * 8 or slot arithmetic could overflow.
constexpr uint64_t kMaxCount = uint64_t{1} << 31;

static_assert(std::is_trivially_copyable_v<NameCandidate>);

#define AIDA_FLAT_RETURN_IF_ERROR(expr)            \
  do {                                             \
    util::Status flat_status_ = (expr);            \
    if (!flat_status_.ok()) return flat_status_;   \
  } while (0)

util::Status Corrupt(const std::string& what) {
  return util::Status::InvalidArgument("flat snapshot: " + what);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct SectionBlob {
  SectionId id;
  const void* data;
  uint64_t size;
};

template <typename T>
uint64_t VecBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace

std::string SerializeFlatSnapshot(const KnowledgeBase& kb) {
  const TypeTaxonomy& taxonomy = kb.taxonomy();
  const EntityRepository& entities = kb.entities();
  const Dictionary::FlatView& dict = kb.dictionary().flat_view();
  const KeyphraseStore::FlatView& kp = kb.keyphrases().flat_view();
  const LinkGraph::FlatView& links = kb.links().flat_view();

  const uint64_t entity_count = entities.size();
  AIDA_CHECK(kp.entity_count == entity_count,
             "keyphrase store covers %llu entities, repository has %llu",
             static_cast<unsigned long long>(kp.entity_count),
             static_cast<unsigned long long>(entity_count));
  AIDA_CHECK(links.entity_count == entity_count,
             "link graph covers %llu entities, repository has %llu",
             static_cast<unsigned long long>(links.entity_count),
             static_cast<unsigned long long>(entity_count));

  // Taxonomy and entity repository are not flattened in memory (they are
  // small and keep reference-returning APIs); lay them out here.
  std::vector<uint64_t> tax_name_offsets{0};
  std::string tax_name_pool;
  std::vector<TypeId> tax_parents;
  for (TypeId t = 0; t < taxonomy.size(); ++t) {
    tax_name_pool.append(taxonomy.TypeName(t));
    tax_name_offsets.push_back(tax_name_pool.size());
    tax_parents.push_back(taxonomy.Parent(t));
  }

  std::vector<uint64_t> entity_name_offsets{0};
  std::string entity_name_pool;
  std::vector<uint64_t> entity_anchor_counts;
  std::vector<uint64_t> entity_type_offsets{0};
  std::vector<TypeId> entity_types;
  for (EntityId e = 0; e < entity_count; ++e) {
    const Entity& entity = entities.Get(e);
    entity_name_pool.append(entity.canonical_name);
    entity_name_offsets.push_back(entity_name_pool.size());
    entity_anchor_counts.push_back(entity.anchor_count);
    entity_types.insert(entity_types.end(), entity.types.begin(),
                        entity.types.end());
    entity_type_offsets.push_back(entity_types.size());
  }

  MetaSection meta;
  meta.entity_count = entity_count;
  meta.taxonomy_count = taxonomy.size();
  meta.word_count = kp.word_count;
  meta.phrase_count = kp.phrase_count;
  meta.collection_size = kp.collection_size;
  meta.exact_name_count = dict.exact.name_count;
  meta.folded_name_count = dict.folded.name_count;
  meta.link_count = links.out_offsets[links.entity_count];

  std::vector<SectionBlob> sections;
  sections.reserve(kSectionTotal);
  auto add = [&sections](SectionId id, const void* data, uint64_t size) {
    sections.push_back({id, data, size});
  };
  auto add_dict_table = [&](const Dictionary::TableView& table,
                            SectionId name_offsets, SectionId name_pool,
                            SectionId ranges, SectionId candidates,
                            SectionId slots) {
    const uint64_t n = table.name_count;
    add(name_offsets, table.name_offsets, (n + 1) * sizeof(uint64_t));
    add(name_pool, table.name_pool, table.name_offsets[n]);
    add(ranges, table.candidate_offsets, (n + 1) * sizeof(uint64_t));
    add(candidates, table.candidates,
        table.candidate_offsets[n] * sizeof(NameCandidate));
    add(slots, table.hash.slots, table.hash.capacity * sizeof(uint32_t));
  };

  add(SectionId::kMeta, &meta, sizeof(meta));
  add(SectionId::kTaxonomyNameOffsets, tax_name_offsets.data(),
      VecBytes(tax_name_offsets));
  add(SectionId::kTaxonomyNamePool, tax_name_pool.data(),
      tax_name_pool.size());
  add(SectionId::kTaxonomyParents, tax_parents.data(), VecBytes(tax_parents));
  add(SectionId::kEntityNameOffsets, entity_name_offsets.data(),
      VecBytes(entity_name_offsets));
  add(SectionId::kEntityNamePool, entity_name_pool.data(),
      entity_name_pool.size());
  add(SectionId::kEntityAnchorCounts, entity_anchor_counts.data(),
      VecBytes(entity_anchor_counts));
  add(SectionId::kEntityTypeOffsets, entity_type_offsets.data(),
      VecBytes(entity_type_offsets));
  add(SectionId::kEntityTypes, entity_types.data(), VecBytes(entity_types));
  add_dict_table(dict.exact, SectionId::kDictExactNameOffsets,
                 SectionId::kDictExactNamePool, SectionId::kDictExactRanges,
                 SectionId::kDictExactCandidates, SectionId::kDictExactSlots);
  add_dict_table(dict.folded, SectionId::kDictFoldedNameOffsets,
                 SectionId::kDictFoldedNamePool, SectionId::kDictFoldedRanges,
                 SectionId::kDictFoldedCandidates,
                 SectionId::kDictFoldedSlots);
  add(SectionId::kWordOffsets, kp.word_offsets,
      (kp.word_count + 1) * sizeof(uint64_t));
  add(SectionId::kWordPool, kp.word_pool, kp.word_offsets[kp.word_count]);
  add(SectionId::kWordSlots, kp.word_hash.slots,
      kp.word_hash.capacity * sizeof(uint32_t));
  add(SectionId::kPhraseWordOffsets, kp.phrase_word_offsets,
      (kp.phrase_count + 1) * sizeof(uint64_t));
  add(SectionId::kPhraseWords, kp.phrase_words,
      kp.phrase_word_offsets[kp.phrase_count] * sizeof(WordId));
  const uint64_t entity_phrase_total = kp.entity_phrase_offsets[entity_count];
  add(SectionId::kEntityPhraseOffsets, kp.entity_phrase_offsets,
      (entity_count + 1) * sizeof(uint64_t));
  add(SectionId::kEntityPhraseIds, kp.entity_phrase_ids,
      entity_phrase_total * sizeof(PhraseId));
  add(SectionId::kEntityPhraseCounts, kp.entity_phrase_counts,
      entity_phrase_total * sizeof(uint32_t));
  add(SectionId::kEntityPhraseMi, kp.entity_phrase_mi,
      entity_phrase_total * sizeof(double));
  const uint64_t entity_word_total = kp.entity_word_offsets[entity_count];
  add(SectionId::kEntityWordOffsets, kp.entity_word_offsets,
      (entity_count + 1) * sizeof(uint64_t));
  add(SectionId::kEntityWordIds, kp.entity_word_ids,
      entity_word_total * sizeof(WordId));
  add(SectionId::kEntityWordNpmi, kp.entity_word_npmi,
      entity_word_total * sizeof(double));
  add(SectionId::kPhraseDf, kp.phrase_df, kp.phrase_count * sizeof(uint32_t));
  add(SectionId::kWordDf, kp.word_df, kp.word_count * sizeof(uint32_t));
  add(SectionId::kInLinkOffsets, links.in_offsets,
      (entity_count + 1) * sizeof(uint64_t));
  add(SectionId::kInLinkTargets, links.in_targets,
      links.in_offsets[entity_count] * sizeof(EntityId));
  add(SectionId::kOutLinkOffsets, links.out_offsets,
      (entity_count + 1) * sizeof(uint64_t));
  add(SectionId::kOutLinkTargets, links.out_targets,
      links.out_offsets[entity_count] * sizeof(EntityId));
  AIDA_CHECK(sections.size() == kSectionTotal,
             "section list out of sync with SectionId enum");

  std::vector<SectionEntry> entries(sections.size());
  uint64_t cursor =
      AlignUp(sizeof(FileHeader) + sections.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    entries[i].id = static_cast<uint32_t>(sections[i].id);
    entries[i].offset = cursor;
    entries[i].size = sections[i].size;
    cursor = AlignUp(cursor + sections[i].size);
  }

  FileHeader header;
  header.file_size = cursor;
  header.section_count = sections.size();

  std::string out(cursor, '\0');
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), entries.data(),
              entries.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].size > 0) {
      std::memcpy(out.data() + entries[i].offset, sections[i].data,
                  sections[i].size);
    }
  }
  return out;
}

util::Status SaveFlatSnapshot(const KnowledgeBase& kb,
                              const std::string& path) {
  return util::WriteFile(path, SerializeFlatSnapshot(kb));
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

namespace {

struct AIDA_VIEW_TYPE SectionTable {
  std::string_view data;
  uint64_t offset[kMaxSectionId + 1] = {};
  uint64_t size[kMaxSectionId + 1] = {};
  bool present[kMaxSectionId + 1] = {};
};

util::Status ParseSections(std::string_view data, SectionTable* table) {
  table->data = data;
  if (data.size() < sizeof(FileHeader)) return Corrupt("header truncated");
  FileHeader header;
  std::memcpy(&header, data.data(), sizeof(header));
  if (header.magic != kFlatMagic) return Corrupt("bad magic");
  if (header.version != kFlatVersion) {
    return Corrupt("unsupported version " + std::to_string(header.version));
  }
  if (header.file_size != data.size()) return Corrupt("file size mismatch");
  if (header.section_count != kSectionTotal) {
    return Corrupt("unexpected section count");
  }
  const uint64_t table_bytes = kSectionTotal * sizeof(SectionEntry);
  if (data.size() - sizeof(FileHeader) < table_bytes) {
    return Corrupt("section table truncated");
  }
  for (uint64_t i = 0; i < kSectionTotal; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                data.data() + sizeof(FileHeader) + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.id < 1 || entry.id > kMaxSectionId) {
      return Corrupt("unknown section id");
    }
    if (table->present[entry.id]) return Corrupt("duplicate section");
    if (entry.offset % kSectionAlignment != 0) {
      return Corrupt("misaligned section");
    }
    if (entry.offset > data.size() ||
        entry.size > data.size() - entry.offset) {
      return Corrupt("section out of bounds");
    }
    table->present[entry.id] = true;
    table->offset[entry.id] = entry.offset;
    table->size[entry.id] = entry.size;
  }
  return util::Status::Ok();
}

/// Fetches a section as `count` elements of T; the section byte size must
/// match exactly. All pointers handed out stay inside `data`.
template <typename T>
util::Status GetArray(const SectionTable& table, SectionId id, uint64_t count,
                      const T** out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const uint32_t i = static_cast<uint32_t>(id);
  if (table.size[i] % sizeof(T) != 0 || table.size[i] / sizeof(T) != count) {
    return Corrupt("section " + std::to_string(i) + " has wrong size");
  }
  *out = reinterpret_cast<const T*>(table.data.data() + table.offset[i]);
  return util::Status::Ok();
}

/// `count + 1` offsets starting at 0 and non-decreasing (strictly
/// increasing rows when `strict`), ending at `*total`.
util::Status ValidateOffsets(const uint64_t* offsets, uint64_t count,
                             bool strict, const char* what, uint64_t* total) {
  if (offsets[0] != 0) {
    return Corrupt(std::string(what) + " offsets do not start at 0");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (offsets[i + 1] < offsets[i] ||
        (strict && offsets[i + 1] == offsets[i])) {
      return Corrupt(std::string(what) + " offsets not monotonic");
    }
  }
  *total = offsets[count];
  return util::Status::Ok();
}

/// Every key index must be reachable: slots hold a permutation of
/// 1..count with at least one empty slot left to terminate probes.
util::Status ValidateSlots(const StringHashView& hash, uint64_t count,
                           const char* what) {
  if (hash.capacity < 2 || (hash.capacity & (hash.capacity - 1)) != 0) {
    return Corrupt(std::string(what) + " hash capacity not a power of two");
  }
  if (count >= hash.capacity) {
    return Corrupt(std::string(what) + " hash table has no empty slot");
  }
  std::vector<bool> seen(count, false);
  uint64_t used = 0;
  for (uint64_t s = 0; s < hash.capacity; ++s) {
    const uint32_t v = hash.slots[s];
    if (v == 0) continue;
    if (v > count) {
      return Corrupt(std::string(what) + " hash slot out of range");
    }
    if (seen[v - 1]) {
      return Corrupt(std::string(what) + " hash slot duplicated");
    }
    seen[v - 1] = true;
    ++used;
  }
  if (used != count) {
    return Corrupt(std::string(what) + " hash table misses keys");
  }
  return util::Status::Ok();
}

/// Ids bounded by `limit`; with `sorted_rows`, strictly ascending inside
/// each CSR row (binary searches and sorted intersections rely on it).
util::Status ValidateIdRows(const uint64_t* offsets, uint64_t row_count,
                            const uint32_t* ids, uint64_t limit,
                            bool sorted_rows, const char* what) {
  for (uint64_t row = 0; row < row_count; ++row) {
    for (uint64_t i = offsets[row]; i < offsets[row + 1]; ++i) {
      if (ids[i] >= limit) {
        return Corrupt(std::string(what) + " id out of range");
      }
      if (sorted_rows && i > offsets[row] && ids[i] <= ids[i - 1]) {
        return Corrupt(std::string(what) + " row not sorted");
      }
    }
  }
  return util::Status::Ok();
}

util::Status LoadDictTable(const SectionTable& table, uint64_t name_count,
                           uint64_t entity_count, SectionId name_offsets_id,
                           SectionId name_pool_id, SectionId ranges_id,
                           SectionId candidates_id, SectionId slots_id,
                           const char* what, Dictionary::TableView* out) {
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, name_offsets_id, name_count + 1,
                                     &out->name_offsets));
  uint64_t pool_size = 0;
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(out->name_offsets, name_count,
                                            /*strict=*/false, what,
                                            &pool_size));
  AIDA_FLAT_RETURN_IF_ERROR(
      GetArray(table, name_pool_id, pool_size, &out->name_pool));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, ranges_id, name_count + 1,
                                     &out->candidate_offsets));
  uint64_t candidate_total = 0;
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(out->candidate_offsets,
                                            name_count, /*strict=*/false,
                                            what, &candidate_total));
  AIDA_FLAT_RETURN_IF_ERROR(
      GetArray(table, candidates_id, candidate_total, &out->candidates));
  for (uint64_t c = 0; c < candidate_total; ++c) {
    if (out->candidates[c].entity >= entity_count) {
      return Corrupt(std::string(what) + " candidate entity out of range");
    }
  }
  // Lookup dispatches on name length and the hash compares raw bytes, so
  // correctness only needs unique names; sortedness additionally makes
  // AllNames deterministic and lets us verify uniqueness in one linear
  // pass.
  for (uint64_t i = 0; i + 1 < name_count; ++i) {
    const std::string_view a(out->name_pool + out->name_offsets[i],
                             out->name_offsets[i + 1] - out->name_offsets[i]);
    const std::string_view b(
        out->name_pool + out->name_offsets[i + 1],
        out->name_offsets[i + 2] - out->name_offsets[i + 1]);
    if (!(a < b)) return Corrupt(std::string(what) + " names not sorted");
  }
  const uint32_t slots_index = static_cast<uint32_t>(slots_id);
  if (table.size[slots_index] % sizeof(uint32_t) != 0) {
    return Corrupt(std::string(what) + " slot section has wrong size");
  }
  out->hash.capacity = table.size[slots_index] / sizeof(uint32_t);
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, slots_id, out->hash.capacity,
                                     &out->hash.slots));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateSlots(out->hash, name_count, what));
  out->name_count = name_count;
  return util::Status::Ok();
}

util::Status AssembleFromSections(const SectionTable& table,
                                  std::shared_ptr<const void> backing,
                                  std::unique_ptr<KnowledgeBase>* out) {
  const MetaSection* meta = nullptr;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kMeta, 1, &meta));
  if (meta->entity_count >= kMaxCount || meta->taxonomy_count >= kMaxCount ||
      meta->word_count >= kMaxCount || meta->phrase_count >= kMaxCount ||
      meta->exact_name_count >= kMaxCount ||
      meta->folded_name_count >= kMaxCount || meta->link_count >= kMaxCount) {
    return Corrupt("implausible element count");
  }
  const uint64_t entity_count = meta->entity_count;
  if (meta->collection_size != entity_count) {
    return Corrupt("collection size does not match entity count");
  }

  // ---- Taxonomy (materialized) -------------------------------------------
  const uint64_t* tax_name_offsets = nullptr;
  const char* tax_name_pool = nullptr;
  const TypeId* tax_parents = nullptr;
  uint64_t tax_pool_size = 0;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kTaxonomyNameOffsets,
                                     meta->taxonomy_count + 1,
                                     &tax_name_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(tax_name_offsets,
                                            meta->taxonomy_count,
                                            /*strict=*/false, "taxonomy",
                                            &tax_pool_size));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kTaxonomyNamePool,
                                     tax_pool_size, &tax_name_pool));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kTaxonomyParents,
                                     meta->taxonomy_count, &tax_parents));
  // TypeTaxonomy::AddType enforces unique names and in-range parents with
  // process-aborting checks; everything must be validated here first.
  auto taxonomy = std::make_unique<TypeTaxonomy>();
  {
    std::unordered_set<std::string_view> seen;
    for (uint64_t t = 0; t < meta->taxonomy_count; ++t) {
      const std::string_view name(tax_name_pool + tax_name_offsets[t],
                                  tax_name_offsets[t + 1] -
                                      tax_name_offsets[t]);
      if (!seen.insert(name).second) return Corrupt("duplicate type name");
      if (tax_parents[t] != kNoType && tax_parents[t] >= t) {
        return Corrupt("taxonomy parent out of order");
      }
    }
    for (uint64_t t = 0; t < meta->taxonomy_count; ++t) {
      taxonomy->AddType(std::string(tax_name_pool + tax_name_offsets[t],
                                    tax_name_offsets[t + 1] -
                                        tax_name_offsets[t]),
                        tax_parents[t]);
    }
  }

  // ---- Entity repository (materialized) ----------------------------------
  const uint64_t* entity_name_offsets = nullptr;
  const char* entity_name_pool = nullptr;
  const uint64_t* entity_anchor_counts = nullptr;
  const uint64_t* entity_type_offsets = nullptr;
  const TypeId* entity_types = nullptr;
  uint64_t entity_pool_size = 0;
  uint64_t entity_type_total = 0;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityNameOffsets,
                                     entity_count + 1, &entity_name_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(entity_name_offsets, entity_count,
                                            /*strict=*/false, "entity names",
                                            &entity_pool_size));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityNamePool,
                                     entity_pool_size, &entity_name_pool));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityAnchorCounts,
                                     entity_count, &entity_anchor_counts));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityTypeOffsets,
                                     entity_count + 1, &entity_type_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(entity_type_offsets, entity_count,
                                            /*strict=*/false, "entity types",
                                            &entity_type_total));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityTypes,
                                     entity_type_total, &entity_types));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateIdRows(entity_type_offsets, entity_count,
                                           entity_types,
                                           meta->taxonomy_count,
                                           /*sorted_rows=*/false,
                                           "entity type"));
  auto repository = std::make_unique<EntityRepository>();
  {
    std::unordered_set<std::string_view> seen;
    for (uint64_t e = 0; e < entity_count; ++e) {
      const std::string_view name(entity_name_pool + entity_name_offsets[e],
                                  entity_name_offsets[e + 1] -
                                      entity_name_offsets[e]);
      if (!seen.insert(name).second) {
        return Corrupt("duplicate entity name");
      }
    }
    for (uint64_t e = 0; e < entity_count; ++e) {
      const EntityId id = repository->Add(
          std::string(entity_name_pool + entity_name_offsets[e],
                      entity_name_offsets[e + 1] - entity_name_offsets[e]));
      Entity& entity = repository->GetMutable(id);
      entity.anchor_count = entity_anchor_counts[e];
      entity.types.assign(entity_types + entity_type_offsets[e],
                          entity_types + entity_type_offsets[e + 1]);
    }
  }

  // ---- Dictionary (zero-copy) --------------------------------------------
  Dictionary::FlatView dict_view;
  AIDA_FLAT_RETURN_IF_ERROR(LoadDictTable(
      table, meta->exact_name_count, entity_count,
      SectionId::kDictExactNameOffsets, SectionId::kDictExactNamePool,
      SectionId::kDictExactRanges, SectionId::kDictExactCandidates,
      SectionId::kDictExactSlots, "exact dictionary", &dict_view.exact));
  AIDA_FLAT_RETURN_IF_ERROR(LoadDictTable(
      table, meta->folded_name_count, entity_count,
      SectionId::kDictFoldedNameOffsets, SectionId::kDictFoldedNamePool,
      SectionId::kDictFoldedRanges, SectionId::kDictFoldedCandidates,
      SectionId::kDictFoldedSlots, "folded dictionary", &dict_view.folded));

  // ---- Keyphrase store (zero-copy) ---------------------------------------
  KeyphraseStore::FlatView kp_view;
  uint64_t word_pool_size = 0;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kWordOffsets,
                                     meta->word_count + 1,
                                     &kp_view.word_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(kp_view.word_offsets,
                                            meta->word_count,
                                            /*strict=*/false, "word",
                                            &word_pool_size));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kWordPool,
                                     word_pool_size, &kp_view.word_pool));
  {
    const uint32_t slots_index =
        static_cast<uint32_t>(SectionId::kWordSlots);
    if (table.size[slots_index] % sizeof(uint32_t) != 0) {
      return Corrupt("word slot section has wrong size");
    }
    kp_view.word_hash.capacity = table.size[slots_index] / sizeof(uint32_t);
    AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kWordSlots,
                                       kp_view.word_hash.capacity,
                                       &kp_view.word_hash.slots));
    AIDA_FLAT_RETURN_IF_ERROR(
        ValidateSlots(kp_view.word_hash, meta->word_count, "word"));
  }
  uint64_t phrase_word_total = 0;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kPhraseWordOffsets,
                                     meta->phrase_count + 1,
                                     &kp_view.phrase_word_offsets));
  // Strict: the store never produces an empty phrase (InternPhrase checks),
  // and downstream matching assumes at least one word per phrase.
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(kp_view.phrase_word_offsets,
                                            meta->phrase_count,
                                            /*strict=*/true, "phrase",
                                            &phrase_word_total));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kPhraseWords,
                                     phrase_word_total,
                                     &kp_view.phrase_words));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateIdRows(kp_view.phrase_word_offsets,
                                           meta->phrase_count,
                                           kp_view.phrase_words,
                                           meta->word_count,
                                           /*sorted_rows=*/false,
                                           "phrase word"));
  uint64_t entity_phrase_total = 0;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityPhraseOffsets,
                                     entity_count + 1,
                                     &kp_view.entity_phrase_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(kp_view.entity_phrase_offsets,
                                            entity_count, /*strict=*/false,
                                            "entity phrase",
                                            &entity_phrase_total));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityPhraseIds,
                                     entity_phrase_total,
                                     &kp_view.entity_phrase_ids));
  // Insertion order is part of the contract (EntityPhrases documents it),
  // so rows are only range-checked, not required sorted.
  AIDA_FLAT_RETURN_IF_ERROR(ValidateIdRows(kp_view.entity_phrase_offsets,
                                           entity_count,
                                           kp_view.entity_phrase_ids,
                                           meta->phrase_count,
                                           /*sorted_rows=*/false,
                                           "entity phrase"));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityPhraseCounts,
                                     entity_phrase_total,
                                     &kp_view.entity_phrase_counts));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityPhraseMi,
                                     entity_phrase_total,
                                     &kp_view.entity_phrase_mi));
  uint64_t entity_word_total = 0;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityWordOffsets,
                                     entity_count + 1,
                                     &kp_view.entity_word_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(kp_view.entity_word_offsets,
                                            entity_count, /*strict=*/false,
                                            "entity word",
                                            &entity_word_total));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityWordIds,
                                     entity_word_total,
                                     &kp_view.entity_word_ids));
  // Sorted: KeywordNpmi binary-searches these rows.
  AIDA_FLAT_RETURN_IF_ERROR(ValidateIdRows(kp_view.entity_word_offsets,
                                           entity_count,
                                           kp_view.entity_word_ids,
                                           meta->word_count,
                                           /*sorted_rows=*/true,
                                           "entity word"));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kEntityWordNpmi,
                                     entity_word_total,
                                     &kp_view.entity_word_npmi));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kPhraseDf,
                                     meta->phrase_count, &kp_view.phrase_df));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kWordDf,
                                     meta->word_count, &kp_view.word_df));
  kp_view.word_count = meta->word_count;
  kp_view.phrase_count = meta->phrase_count;
  kp_view.entity_count = entity_count;
  kp_view.collection_size = meta->collection_size;

  // ---- Link graph (zero-copy) --------------------------------------------
  LinkGraph::FlatView link_view;
  uint64_t in_total = 0;
  uint64_t out_total = 0;
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kInLinkOffsets,
                                     entity_count + 1,
                                     &link_view.in_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(link_view.in_offsets,
                                            entity_count, /*strict=*/false,
                                            "in-link", &in_total));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kInLinkTargets,
                                     in_total, &link_view.in_targets));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kOutLinkOffsets,
                                     entity_count + 1,
                                     &link_view.out_offsets));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateOffsets(link_view.out_offsets,
                                            entity_count, /*strict=*/false,
                                            "out-link", &out_total));
  AIDA_FLAT_RETURN_IF_ERROR(GetArray(table, SectionId::kOutLinkTargets,
                                     out_total, &link_view.out_targets));
  if (in_total != meta->link_count || out_total != meta->link_count) {
    return Corrupt("link totals disagree with meta");
  }
  // Sorted rows: Milne-Witten intersects in-link lists pairwise.
  AIDA_FLAT_RETURN_IF_ERROR(ValidateIdRows(link_view.in_offsets, entity_count,
                                           link_view.in_targets, entity_count,
                                           /*sorted_rows=*/true, "in-link"));
  AIDA_FLAT_RETURN_IF_ERROR(ValidateIdRows(link_view.out_offsets,
                                           entity_count,
                                           link_view.out_targets,
                                           entity_count,
                                           /*sorted_rows=*/true, "out-link"));
  link_view.entity_count = entity_count;

  KnowledgeBase::Parts parts;
  parts.entities = std::move(repository);
  parts.dictionary = Dictionary::FromFlat(dict_view);
  parts.keyphrases = KeyphraseStore::FromFlat(kp_view);
  parts.links = LinkGraph::FromFlat(link_view);
  parts.taxonomy = std::move(taxonomy);
  parts.backing = std::move(backing);
  *out = KnowledgeBase::FromParts(std::move(parts));
  return util::Status::Ok();
}

}  // namespace

util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadFlatSnapshotFromBuffer(
    std::string_view data, std::shared_ptr<const void> backing) {
  if (reinterpret_cast<uintptr_t>(data.data()) % kSectionAlignment != 0) {
    return util::Status::InvalidArgument(
        "flat snapshot buffer is not 8-byte aligned");
  }
  SectionTable table;
  AIDA_FLAT_RETURN_IF_ERROR(ParseSections(data, &table));
  std::unique_ptr<KnowledgeBase> kb;
  AIDA_FLAT_RETURN_IF_ERROR(
      AssembleFromSections(table, std::move(backing), &kb));
  return kb;
}

util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadFlatSnapshotFromString(
    std::string_view data) {
  // std::string's buffer only guarantees char alignment; copy into memory
  // from operator new, which is aligned for u64/double array views.
  std::shared_ptr<char[]> buffer(new char[data.size() + 1]);
  if (!data.empty()) std::memcpy(buffer.get(), data.data(), data.size());
  const std::string_view view(buffer.get(), data.size());
  return LoadFlatSnapshotFromBuffer(
      view, std::shared_ptr<const void>(buffer, buffer.get()));
}

util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadFlatSnapshot(
    const std::string& path) {
  util::StatusOr<std::shared_ptr<const MappedFile>> file =
      MappedFile::Open(path);
  if (!file.ok()) return file.status();
  const std::shared_ptr<const MappedFile>& mapped = *file;
  if (mapped->size() == 0) return Corrupt("empty file");
  const std::string_view view(mapped->data(), mapped->size());
  return LoadFlatSnapshotFromBuffer(view, mapped);
}

#undef AIDA_FLAT_RETURN_IF_ERROR

}  // namespace aida::kb::flat
