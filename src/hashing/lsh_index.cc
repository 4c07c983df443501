#include "hashing/lsh_index.h"

#include "hashing/minhash.h"
#include "util/check.h"

namespace aida::hashing {

LshIndex::LshIndex(size_t bands, size_t rows_per_band)
    : bands_(bands), rows_per_band_(rows_per_band) {
  AIDA_CHECK(bands > 0 && rows_per_band > 0,
             "LSH geometry must be positive: %zu bands x %zu rows", bands,
             rows_per_band);
}

std::vector<uint64_t> LshIndex::BucketKeys(
    const std::vector<uint64_t>& sketch) const {
  AIDA_CHECK(sketch.size() >= bands_ * rows_per_band_,
             "sketch of %zu hashes too short for %zu x %zu banding",
             sketch.size(), bands_, rows_per_band_);
  std::vector<uint64_t> keys;
  keys.reserve(bands_);
  for (size_t b = 0; b < bands_; ++b) {
    // Order-insensitive combination by summation, then mixed with the band
    // index so equal sums in different bands do not collide.
    uint64_t sum = 0;
    for (size_t r = 0; r < rows_per_band_; ++r) {
      sum += sketch[b * rows_per_band_ + r];
    }
    keys.push_back(MixHash(sum, 0xC2B2AE3D27D4EB4FULL + b));
  }
  return keys;
}

}  // namespace aida::hashing
