#ifndef AIDA_HASHING_LSH_INDEX_H_
#define AIDA_HASHING_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aida::hashing {

/// Banded locality-sensitive hashing over min-hash sketches. Sketches are
/// partitioned into `bands` bands of `rows_per_band` values; the values in
/// a band are combined order-insensitively by summation (as the paper
/// does), and items landing in the same (band, combined value) bucket
/// become comparison candidates.
class LshIndex {
 public:
  LshIndex(size_t bands, size_t rows_per_band);

  size_t bands() const { return bands_; }
  size_t rows_per_band() const { return rows_per_band_; }

  /// Computes the bucket keys (one per band) for a sketch of at least
  /// bands * rows_per_band entries. Two items are comparison candidates
  /// when any of their keys are equal; both stages of the two-stage
  /// scheme use the keys as bucket identities.
  std::vector<uint64_t> BucketKeys(const std::vector<uint64_t>& sketch) const;

 private:
  size_t bands_;
  size_t rows_per_band_;
};

}  // namespace aida::hashing

#endif  // AIDA_HASHING_LSH_INDEX_H_
