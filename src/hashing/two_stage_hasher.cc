#include "hashing/two_stage_hasher.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace aida::hashing {

namespace {

// Collates (band key, item) insertions into the set of item pairs sharing
// a key. An open-addressing table keyed by the full 64-bit key holds, per
// used slot, the key's latest insertion; each insertion links to the
// previous one of its key, so a slot heads its bucket's member list. A
// pair is marked in an n x n bitmap, in the row of its smaller item.
// Reused per thread, so a warm grouping allocates only its result.
class PairCollator {
 public:
  // Prepares for items 0..items-1 and at most `max_keys` insertions.
  void Reset(uint32_t items, size_t max_keys) {
    size_t capacity = 16;
    while (capacity < 2 * max_keys) capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, kFree);
    insertions_.clear();
    items_ = items;
    row_words_ = (items + 63) / 64;
    bitmap_.assign(size_t{items} * row_words_, 0);
  }

  // Puts `item` into bucket `key`, pairing it with the bucket's earlier
  // members. Items must arrive in non-decreasing order.
  void Add(uint64_t key, uint32_t item) {
    // Band keys are SplitMix64 outputs; their low bits are already mixed.
    size_t s = static_cast<size_t>(key) & mask_;
    while (slots_[s] != kFree && insertions_[slots_[s]].key != key) {
      s = (s + 1) & mask_;
    }
    for (uint32_t i = slots_[s]; i != kFree; i = insertions_[i].previous) {
      const uint32_t other = insertions_[i].item;
      if (other == item) continue;
      bitmap_[size_t{other} * row_words_ + item / 64] |= uint64_t{1}
                                                         << (item % 64);
    }
    insertions_.push_back({key, item, slots_[s]});
    slots_[s] = static_cast<uint32_t>(insertions_.size() - 1);
  }

  // The recorded pairs in ascending (first, second) order.
  std::vector<std::pair<uint32_t, uint32_t>> Pairs() const {
    size_t count = 0;
    for (uint64_t word : bitmap_) count += std::popcount(word);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    pairs.reserve(count);
    for (uint32_t a = 0; a < items_; ++a) {
      for (size_t w = 0; w < row_words_; ++w) {
        for (uint64_t bits = bitmap_[a * row_words_ + w]; bits != 0;
             bits &= bits - 1) {
          pairs.emplace_back(
              a, static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
        }
      }
    }
    return pairs;
  }

 private:
  static constexpr uint32_t kFree = 0xFFFFFFFFu;
  struct Insertion {
    uint64_t key;
    uint32_t item;
    uint32_t previous;  // the key's previous insertion, or kFree
  };

  size_t mask_ = 0;
  std::vector<uint32_t> slots_;  // latest insertion of the slot's key
  std::vector<Insertion> insertions_;
  uint32_t items_ = 0;
  size_t row_words_ = 0;
  std::vector<uint64_t> bitmap_;
};

}  // namespace

TwoStageConfig LshGoodConfig() {
  TwoStageConfig config;
  config.entity_bands = 200;
  config.entity_rows = 1;
  return config;
}

TwoStageConfig LshFastConfig() {
  TwoStageConfig config;
  config.entity_bands = 1000;
  config.entity_rows = 2;
  return config;
}

TwoStageHasher::TwoStageHasher(const kb::KeyphraseStore& store,
                               TwoStageConfig config)
    : config_(config),
      entity_hasher_(config.entity_bands * config.entity_rows,
                     config.seed ^ 0xABCDEF1234567890ULL),
      entity_bander_(config.entity_bands, config.entity_rows) {
  AIDA_CHECK(store.finalized(),
             "two-stage hashing needs a finalized KeyphraseStore");
  // Stage one: sketch and band every phrase once.
  MinHasher phrase_hasher(config_.phrase_hashes, config_.seed);
  LshIndex phrase_bander(config_.phrase_bands, config_.phrase_rows);
  std::vector<std::vector<uint32_t>> phrase_buckets(store.phrase_count());
  std::vector<uint32_t> word_items;
  for (kb::PhraseId p = 0; p < store.phrase_count(); ++p) {
    word_items.assign(store.PhraseWords(p).begin(),
                      store.PhraseWords(p).end());
    std::vector<uint64_t> sketch = phrase_hasher.Sketch(word_items);
    for (uint64_t key : phrase_bander.BucketKeys(sketch)) {
      phrase_buckets[p].push_back(static_cast<uint32_t>(key));
    }
  }

  // Entity representation: the union of its phrases' bucket ids.
  entity_buckets_.resize(store.collection_size());
  for (kb::EntityId e = 0; e < store.collection_size(); ++e) {
    std::vector<uint32_t>& buckets = entity_buckets_[e];
    for (kb::PhraseId p : store.EntityPhrases(e)) {
      buckets.insert(buckets.end(), phrase_buckets[p].begin(),
                     phrase_buckets[p].end());
    }
    std::sort(buckets.begin(), buckets.end());
    buckets.erase(std::unique(buckets.begin(), buckets.end()), buckets.end());
  }
  band_keys_ = std::make_unique<KeySlot[]>(entity_buckets_.size());
}

const std::vector<uint32_t>& TwoStageHasher::EntityBuckets(
    kb::EntityId entity) const {
  static const std::vector<uint32_t>& empty = *new std::vector<uint32_t>();
  if (entity >= entity_buckets_.size()) return empty;
  return entity_buckets_[entity];
}

std::span<const uint64_t> TwoStageHasher::BandKeys(
    kb::EntityId entity) const {
  const std::vector<uint32_t>& buckets = EntityBuckets(entity);
  if (buckets.empty()) return {};  // no phrases -> unrelated to everything
  std::atomic<const uint64_t*>& slot = band_keys_[entity].keys;
  const uint64_t* keys = slot.load(std::memory_order_acquire);
  if (keys == nullptr) {
    const std::vector<uint64_t> computed =
        entity_bander_.BucketKeys(entity_hasher_.Sketch(buckets));
    uint64_t* fresh = new uint64_t[computed.size()];
    std::copy(computed.begin(), computed.end(), fresh);
    // A racing thread may have published the same keys first; keep its
    // copy so every caller sees one array.
    if (slot.compare_exchange_strong(keys, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      keys = fresh;
    } else {
      delete[] fresh;
    }
  }
  return {keys, config_.entity_bands};
}

std::vector<std::pair<uint32_t, uint32_t>> TwoStageHasher::GroupEntities(
    const std::vector<kb::EntityId>& entities) const {
  thread_local PairCollator collator;
  const uint32_t n = static_cast<uint32_t>(entities.size());
  collator.Reset(n, size_t{n} * config_.entity_bands);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint64_t key : BandKeys(entities[i])) collator.Add(key, i);
  }
  return collator.Pairs();
}

}  // namespace aida::hashing
