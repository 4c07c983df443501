#ifndef AIDA_HASHING_TWO_STAGE_HASHER_H_
#define AIDA_HASHING_TWO_STAGE_HASHER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hashing/lsh_index.h"
#include "hashing/minhash.h"
#include "kb/keyphrase_store.h"
#include "util/lifetime.h"

namespace aida::hashing {

/// Configuration of the two-stage hashing scheme (Section 4.4.2).
struct TwoStageConfig {
  /// Stage one: min-hash samples per keyphrase and LSH banding that groups
  /// near-duplicate phrases. Paper: 4 samples, 2 bands of 2.
  size_t phrase_hashes = 4;
  size_t phrase_bands = 2;
  size_t phrase_rows = 2;
  /// Stage two: banding over phrase-bucket-id sketches of entities.
  /// KORE-LSH-G uses 200 bands of 1 (recall-oriented); KORE-LSH-F uses
  /// 1000 bands of 2 (precision-oriented, prunes more pairs).
  size_t entity_bands = 200;
  size_t entity_rows = 1;
  uint64_t seed = 0x514E434F44455221ULL;
};

/// Returns the paper's KORE-LSH-G configuration.
TwoStageConfig LshGoodConfig();
/// Returns the paper's KORE-LSH-F configuration.
TwoStageConfig LshFastConfig();

/// Pre-clusters entities by keyphrase overlap so that expensive pairwise
/// relatedness is only computed within clusters:
///
///  stage 1 (precomputed once per KB, linear): every keyphrase is min-hash
///  sketched over its words and banded; each phrase maps to a small set of
///  phrase-bucket ids, so near-duplicate phrases share buckets and partial
///  phrase matches survive the set representation;
///
///  stage 2: each entity is represented by the set of its phrase-bucket
///  ids, min-hash sketched, and banded again. The band keys depend only on
///  the entity, so they are computed on the entity's first use and
///  memoized; a query only collates the keys of its entities, and only
///  entities sharing a key are compared exactly.
///
/// Thread-safe: concurrent GroupEntities calls share the memo, whose
/// slots are published by compare-and-swap.
class TwoStageHasher {
 public:
  /// Precomputes stage one over all phrases in `store` (must be finalized).
  TwoStageHasher(const kb::KeyphraseStore& store, TwoStageConfig config);

  /// Phrase-bucket ids (sorted, unique) representing `entity`.
  const std::vector<uint32_t>& EntityBuckets(kb::EntityId entity) const;

  /// The `config().entity_bands` stage-two band keys of `entity`; empty
  /// for an entity without phrase buckets or outside the store. The view
  /// lives as long as the hasher.
  std::span<const uint64_t> BandKeys(kb::EntityId entity) const
      AIDA_LIFETIME_BOUND;

  /// Returns index pairs (into `entities`) that share at least one stage-two
  /// bucket, sorted and unique; only these pairs need exact relatedness
  /// computation.
  std::vector<std::pair<uint32_t, uint32_t>> GroupEntities(
      const std::vector<kb::EntityId>& entities) const;

  const TwoStageConfig& config() const { return config_; }

 private:
  // One memo slot per entity: null until the entity's band keys are first
  // computed, then the owned key array.
  struct KeySlot {
    KeySlot() = default;
    KeySlot(const KeySlot&) = delete;
    KeySlot& operator=(const KeySlot&) = delete;
    ~KeySlot() { delete[] keys.load(std::memory_order_relaxed); }
    std::atomic<const uint64_t*> keys{nullptr};
  };

  TwoStageConfig config_;
  MinHasher entity_hasher_;
  LshIndex entity_bander_;
  // Per entity: sorted unique phrase-bucket ids.
  std::vector<std::vector<uint32_t>> entity_buckets_;
  std::unique_ptr<KeySlot[]> band_keys_;
};

}  // namespace aida::hashing

#endif  // AIDA_HASHING_TWO_STAGE_HASHER_H_
