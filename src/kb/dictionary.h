#ifndef AIDA_KB_DICTIONARY_H_
#define AIDA_KB_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kb/entity.h"
#include "kb/flat/flat_hash.h"
#include "util/function_effects.h"
#include "util/lifetime.h"

namespace aida::kb {

/// One candidate produced by a dictionary lookup: the entity, how often the
/// looked-up name was observed as an anchor for it, and the prior
/// P(entity | name) normalized over all candidates sharing the name.
///
/// The layout is fixed (24 bytes, 8-byte alignment, explicit padding) so
/// candidate arrays can be serialized and mmap'd verbatim.
struct NameCandidate {
  EntityId entity = kNoEntity;
  uint32_t reserved = 0;  // explicit padding; always zero
  uint64_t anchor_count = 0;
  double prior = 0.0;
};

static_assert(sizeof(NameCandidate) == 24 && alignof(NameCandidate) == 8,
              "NameCandidate must have a stable mmap-able layout");

/// The name -> entity dictionary D (Section 2.2.1), harvested in the paper
/// from Wikipedia titles, redirects, disambiguation pages and link anchors.
///
/// Matching follows Section 3.3.2: names of up to 3 characters are matched
/// case-sensitively (to keep acronyms like "US" apart from the word "us");
/// longer names are matched after upper-casing both sides, so the mention
/// "APPLE" retrieves candidates registered under "Apple".
///
/// Two lifecycle phases: AddAnchor accumulates observations into hash maps;
/// Finalize() sorts the names, computes the priors once, and lays both
/// match tables out flat (offset-indexed name pool, per-name candidate
/// ranges, open-addressing lookup slots). Lookup then returns a span into
/// the precomputed candidate array — either heap-owned or mmap'd.
class AIDA_OWNER_TYPE Dictionary {
 public:
  Dictionary() = default;

  /// Records one observation (or `count` observations) of `name` referring
  /// to `entity`. Build phase only.
  void AddAnchor(std::string_view name, EntityId entity, uint64_t count = 1);

  /// Sorts names, normalizes priors and flattens both match tables. Must
  /// be called before any query.
  void Finalize();

  /// All candidates for `mention_text`, ordered by descending anchor count
  /// then entity id, with priors normalized over the candidate set. Empty
  /// when the name is unknown. Requires Finalize().
  /// AIDA_NONBLOCKING: the per-request candidate probe — hash + linear
  /// shift over flat (possibly mmap'd) arrays; case folding for names
  /// longer than 3 characters happens in a stack buffer, not a
  /// std::string (mentions longer than the buffer take an audited
  /// heap-fold cold branch).
  std::span<const NameCandidate> Lookup(std::string_view mention_text) const
      AIDA_LIFETIME_BOUND AIDA_NONBLOCKING;

  /// True if any entity is registered under `mention_text`.
  bool Contains(std::string_view mention_text) const AIDA_NONBLOCKING {
    return !Lookup(mention_text).empty();
  }

  /// Number of distinct names.
  size_t NameCount() const;

  /// Average number of candidates per name (dictionary ambiguity).
  double MeanAmbiguity() const;

  /// All registered surface names, sorted (for corpus generation / stats).
  std::vector<std::string> AllNames() const;

  bool finalized() const { return finalized_; }

  // ---- Flat backing (internal, kb/flat) ----------------------------------

  /// One flattened match table: `name_count` names sorted ascending in an
  /// offset-indexed pool, per-name candidate ranges into one candidate
  /// array, and open-addressing slots for O(1) name lookup.
  struct AIDA_VIEW_TYPE TableView {
    const uint64_t* name_offsets = nullptr;      // name_count + 1 entries
    const char* name_pool = nullptr;
    const uint64_t* candidate_offsets = nullptr;  // name_count + 1 entries
    const NameCandidate* candidates = nullptr;
    flat::StringHashView hash;
    uint64_t name_count = 0;
  };

  struct AIDA_VIEW_TYPE FlatView {
    TableView exact;   // all names, matched case-sensitively
    TableView folded;  // upper-cased names longer than 3 characters
  };

  /// Adopts already-validated flat tables (typically an mmap'd snapshot)
  /// without copying; the storage must outlive the dictionary.
  static std::unique_ptr<Dictionary> FromFlat(const FlatView& view);

  /// Valid after Finalize(); the snapshot writer serializes these arrays.
  const FlatView& flat_view() const AIDA_LIFETIME_BOUND;

 private:
  using CandidateMap = std::unordered_map<EntityId, uint64_t>;
  using NameMap = std::unordered_map<std::string, CandidateMap>;

  /// Owned storage for one flattened table.
  struct OwnedTable {
    std::vector<uint64_t> name_offsets;
    std::string name_pool;
    std::vector<uint64_t> candidate_offsets;
    std::vector<NameCandidate> candidates;
    std::vector<uint32_t> slots;
  };

  static void FlattenTable(NameMap& build, OwnedTable& owned,
                           TableView& view);

  std::string_view TableName(const TableView& table AIDA_LIFETIME_BOUND,
                             uint64_t index) const AIDA_NONBLOCKING {
    const uint64_t begin = table.name_offsets[index];
    return {table.name_pool + begin,
            static_cast<size_t>(table.name_offsets[index + 1] - begin)};
  }

  std::span<const NameCandidate> TableLookup(
      const TableView& table AIDA_LIFETIME_BOUND,
      std::string_view name) const AIDA_NONBLOCKING;

  // Build-phase stores (cleared by Finalize).
  NameMap build_exact_;
  NameMap build_folded_;

  OwnedTable owned_exact_;
  OwnedTable owned_folded_;

  FlatView view_;
  bool finalized_ = false;
};

}  // namespace aida::kb

#endif  // AIDA_KB_DICTIONARY_H_
