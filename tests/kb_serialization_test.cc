// Tests of kb::LoadKnowledgeBase, the one KB file loader: a knowledge base
// saved as a flat snapshot file loads back equal to the one that wrote it,
// and a missing, foreign, truncated or corrupt file yields an error Status,
// never a crash (the ASan configuration reruns these sweeps). The format's
// in-memory checks live in flat_kb_test.cc.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "kb/flat/flat_layout.h"
#include "kb/flat/flat_snapshot.h"
#include "kb/kb_builder.h"
#include "kb/kb_serialization.h"
#include "test_world.h"
#include "util/serialize.h"

namespace aida::kb {
namespace {

using ::aida::testing::TestWorld;

class KbSerializationTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  const KnowledgeBase& kb() const {
    return *TestWorld::Get().world.knowledge_base;
  }

  // The TestWorld KB as flat snapshot bytes, serialized once.
  static const std::string& Bytes() {
    static const std::string& bytes = *new std::string(
        flat::SerializeFlatSnapshot(*TestWorld::Get().world.knowledge_base));
    return bytes;
  }

  // Saves kb() to this test's file and loads it back.
  std::unique_ptr<KnowledgeBase> SaveAndLoad() {
    EXPECT_TRUE(flat::SaveFlatSnapshot(kb(), path_).ok());
    auto loaded = LoadKnowledgeBase(path_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? std::move(loaded.value()) : nullptr;
  }

  // Writes `bytes` as this test's file and loads it.
  util::StatusOr<std::unique_ptr<KnowledgeBase>> LoadBytes(
      const std::string& bytes) {
    EXPECT_TRUE(util::WriteFile(path_, bytes).ok());
    return LoadKnowledgeBase(path_);
  }

  // One file per test: ctest runs each case in its own process, in
  // parallel with the others.
  const std::string path_ =
      ::testing::TempDir() + "/kb_serialization_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".fkb";
};

// The payload of section `id` in the flat snapshot `bytes`.
std::span<char> Section(std::string& bytes, flat::SectionId id) {
  flat::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint64_t i = 0; i < header.section_count; ++i) {
    flat::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id == static_cast<uint32_t>(id)) {
      return {bytes.data() + entry.offset, entry.size};
    }
  }
  ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
  return {};
}

TEST_F(KbSerializationTest, RoundTripPreservesEntities) {
  std::unique_ptr<KnowledgeBase> restored = SaveAndLoad();
  ASSERT_NE(restored, nullptr);

  ASSERT_EQ(restored->entity_count(), kb().entity_count());
  for (EntityId e = 0; e < kb().entity_count(); ++e) {
    const Entity& a = kb().entities().Get(e);
    const Entity& b = restored->entities().Get(e);
    EXPECT_EQ(a.canonical_name, b.canonical_name);
    EXPECT_EQ(a.anchor_count, b.anchor_count);
    EXPECT_EQ(a.types, b.types);
  }
}

TEST_F(KbSerializationTest, RoundTripPreservesDictionary) {
  std::unique_ptr<KnowledgeBase> restored = SaveAndLoad();
  ASSERT_NE(restored, nullptr);

  for (const std::string& name : kb().dictionary().AllNames()) {
    auto original = kb().dictionary().Lookup(name);
    auto round_trip = restored->dictionary().Lookup(name);
    ASSERT_EQ(original.size(), round_trip.size()) << name;
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].entity, round_trip[i].entity);
      EXPECT_EQ(original[i].anchor_count, round_trip[i].anchor_count);
      EXPECT_DOUBLE_EQ(original[i].prior, round_trip[i].prior);
    }
  }
}

TEST_F(KbSerializationTest, RoundTripPreservesLinksAndWeights) {
  std::unique_ptr<KnowledgeBase> restored = SaveAndLoad();
  ASSERT_NE(restored, nullptr);

  auto equal_rows = [](std::span<const EntityId> a,
                       std::span<const EntityId> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (EntityId e = 0; e < kb().entity_count(); e += 7) {
    EXPECT_TRUE(equal_rows(kb().links().InLinks(e),
                           restored->links().InLinks(e)));
    EXPECT_TRUE(equal_rows(kb().links().OutLinks(e),
                           restored->links().OutLinks(e)));
    // Derived keyphrase weights are stored, not recomputed: equal bits.
    const auto phrases_a = kb().keyphrases().EntityPhrases(e);
    const auto phrases_b = restored->keyphrases().EntityPhrases(e);
    ASSERT_EQ(phrases_a.size(), phrases_b.size());
    for (size_t i = 0; i < phrases_a.size(); ++i) {
      EXPECT_EQ(kb().keyphrases().PhraseText(phrases_a[i]),
                restored->keyphrases().PhraseText(phrases_b[i]));
      EXPECT_EQ(kb().keyphrases().PhraseMi(e, phrases_a[i]),
                restored->keyphrases().PhraseMi(e, phrases_b[i]));
    }
  }
}

TEST_F(KbSerializationTest, RoundTripPreservesTaxonomy) {
  std::unique_ptr<KnowledgeBase> restored = SaveAndLoad();
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->taxonomy().size(), kb().taxonomy().size());
  for (TypeId t = 0; t < kb().taxonomy().size(); ++t) {
    EXPECT_EQ(restored->taxonomy().TypeName(t), kb().taxonomy().TypeName(t));
    EXPECT_EQ(restored->taxonomy().Parent(t), kb().taxonomy().Parent(t));
  }
}

TEST_F(KbSerializationTest, RejectsGarbage) {
  auto result = LoadBytes("not a knowledge base at all");
  EXPECT_FALSE(result.ok());
}

TEST_F(KbSerializationTest, RejectsTruncation) {
  const std::string& bytes = Bytes();
  for (size_t cut : {size_t{4}, bytes.size() / 2, bytes.size() - 3}) {
    auto result = LoadBytes(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST_F(KbSerializationTest, RejectsVersionMismatch) {
  std::string bytes = Bytes();
  // Bytes [4, 8) hold the format version (little-endian u32).
  ASSERT_GE(bytes.size(), 8u);
  bytes[4] = 0x7F;
  auto result = LoadBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("version"), std::string::npos);
}

TEST_F(KbSerializationTest, RejectsCorruptSectionHeaders) {
  // Overwrite, in turn, the header's file size and section count and the
  // offset and size of every section-table entry with 0xFF bytes. Each
  // then names bytes past the end of the file, so every variant must come
  // back as a clean Status: no crash and no out-of-bounds read (the ASan
  // configuration runs this same test).
  const std::string& pristine = Bytes();
  flat::FileHeader header;
  std::memcpy(&header, pristine.data(), sizeof(header));
  std::vector<size_t> offsets = {offsetof(flat::FileHeader, file_size),
                                 offsetof(flat::FileHeader, section_count)};
  for (uint64_t i = 0; i < header.section_count; ++i) {
    const size_t entry =
        sizeof(flat::FileHeader) + i * sizeof(flat::SectionEntry);
    offsets.push_back(entry + offsetof(flat::SectionEntry, offset));
    offsets.push_back(entry + offsetof(flat::SectionEntry, size));
  }
  for (size_t off : offsets) {
    std::string corrupt = pristine;
    std::memset(corrupt.data() + off, 0xFF, sizeof(uint64_t));
    auto result = LoadBytes(corrupt);
    ASSERT_FALSE(result.ok()) << "offset " << off;
    EXPECT_FALSE(result.status().ToString().empty()) << "offset " << off;
  }
}

TEST_F(KbSerializationTest, RejectsTruncationAtEveryStride) {
  // Denser sweep than RejectsTruncation: cut the file at many points
  // (including every boundary near the end) and require a clean error.
  const std::string& bytes = Bytes();
  std::vector<size_t> cuts;
  for (size_t cut = 0; cut < bytes.size(); cut += bytes.size() / 97 + 1) {
    cuts.push_back(cut);
  }
  for (size_t tail = 1; tail <= 16 && tail < bytes.size(); ++tail) {
    cuts.push_back(bytes.size() - tail);
  }
  for (size_t cut : cuts) {
    auto result = LoadBytes(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST_F(KbSerializationTest, LoadRejectsMissingFile) {
  auto result = LoadKnowledgeBase(::testing::TempDir() + "/does_not_exist.kb");
  EXPECT_FALSE(result.ok());
}

TEST_F(KbSerializationTest, RejectsTrailingBytes) {
  auto result = LoadBytes(Bytes() + "junk");
  EXPECT_FALSE(result.ok());
}

TEST_F(KbSerializationTest, HeaderBitFlipSweepNeverCrashes) {
  // Single-bit corruption of the file header and the first section-table
  // entry: every variant must either still load or come back as a Status
  // with a message — never abort or trip a sanitizer (the ASan
  // configuration runs this same sweep).
  const std::string& pristine = Bytes();
  const size_t span = std::min(
      pristine.size(), sizeof(flat::FileHeader) + sizeof(flat::SectionEntry));
  for (size_t byte = 0; byte < span; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = pristine;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto result = LoadBytes(corrupt);
      if (!result.ok()) {
        EXPECT_FALSE(result.status().ToString().empty())
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

// The loader materializes the taxonomy and the entity repository through
// their Add methods, whose uniqueness checks abort the process; a file that
// breaks one of those invariants, or the keyphrase store's, must be
// refused with a Status first.

TEST_F(KbSerializationTest, RejectsDuplicateEntityNames) {
  KbBuilder builder;
  builder.AddEntity("X");
  builder.AddEntity("Y");
  std::string bytes = flat::SerializeFlatSnapshot(*std::move(builder).Build());
  std::span<char> names = Section(bytes, flat::SectionId::kEntityNamePool);
  ASSERT_EQ(std::string_view(names.data(), names.size()), "XY");
  names[1] = 'X';
  auto result = LoadBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("duplicate entity name"),
            std::string::npos);
}

TEST_F(KbSerializationTest, RejectsDuplicateTypeNames) {
  KbBuilder builder;
  builder.AddType("s");
  builder.AddType("t");
  std::string bytes = flat::SerializeFlatSnapshot(*std::move(builder).Build());
  std::span<char> names = Section(bytes, flat::SectionId::kTaxonomyNamePool);
  ASSERT_EQ(std::string_view(names.data(), names.size()), "st");
  names[0] = 't';
  auto result = LoadBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("duplicate type name"),
            std::string::npos);
}

TEST_F(KbSerializationTest, RejectsEmptyKeyphraseText) {
  // A phrase with no words breaks KeyphraseStore's one-word minimum,
  // which keyphrase matching relies on.
  KbBuilder builder;
  builder.AddKeyphrase(builder.AddEntity("X"), "rock");
  std::string bytes = flat::SerializeFlatSnapshot(*std::move(builder).Build());
  std::span<char> offsets =
      Section(bytes, flat::SectionId::kPhraseWordOffsets);
  ASSERT_EQ(offsets.size(), 2 * sizeof(uint64_t));
  // Word offsets {0, 1} become {0, 0}: the one phrase keeps no word.
  std::memset(offsets.data() + sizeof(uint64_t), 0, sizeof(uint64_t));
  auto result = LoadBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("phrase offsets"),
            std::string::npos);
}

TEST_F(KbSerializationTest, FileRoundTrip) {
  ASSERT_TRUE(flat::SaveFlatSnapshot(kb(), path_).ok());
  auto loaded = LoadKnowledgeBase(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->flat_backed());
  EXPECT_EQ((*loaded)->entity_count(), kb().entity_count());
}

}  // namespace
}  // namespace aida::kb
