// Tests of the zero-copy flat KB snapshot format: heap -> flat -> load
// round-trip equality, corruption robustness (every failure is a clean
// Status), byte-identical disambiguation between heap- and flat-backed
// knowledge bases, and registry publication of flat snapshot files.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aida.h"
#include "core/relatedness.h"
#include "kb/flat/flat_layout.h"
#include "kb/flat/flat_snapshot.h"
#include "kb/kb_builder.h"
#include "kb/kb_serialization.h"
#include "kb/knowledge_base.h"
#include "kb/snapshot_registry.h"
#include "test_world.h"

namespace aida::kb {
namespace {

using ::aida::testing::TestWorld;

const KnowledgeBase& HeapKb() {
  return *TestWorld::Get().world.knowledge_base;
}

std::string FlatBytes() {
  static const std::string& bytes =
      *new std::string(flat::SerializeFlatSnapshot(HeapKb()));
  return bytes;
}

std::unique_ptr<KnowledgeBase> LoadFlatCopy() {
  auto loaded = flat::LoadFlatSnapshotFromString(FlatBytes());
  AIDA_CHECK(loaded.ok());
  return std::move(loaded.value());
}

core::DisambiguationProblem ToProblem(const corpus::Document& doc) {
  core::DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  for (const corpus::GoldMention& gm : doc.mentions) {
    core::ProblemMention pm;
    pm.surface = gm.surface;
    pm.begin_token = gm.begin_token;
    pm.end_token = gm.end_token;
    problem.mentions.push_back(std::move(pm));
  }
  return problem;
}

TEST(FlatKbTest, RoundTripPreservesEntitiesAndTaxonomy) {
  std::unique_ptr<KnowledgeBase> flat = LoadFlatCopy();
  EXPECT_TRUE(flat->flat_backed());
  EXPECT_FALSE(HeapKb().flat_backed());

  ASSERT_EQ(flat->entity_count(), HeapKb().entity_count());
  for (EntityId e = 0; e < HeapKb().entity_count(); ++e) {
    const Entity& a = HeapKb().entities().Get(e);
    const Entity& b = flat->entities().Get(e);
    EXPECT_EQ(a.canonical_name, b.canonical_name);
    EXPECT_EQ(a.anchor_count, b.anchor_count);
    EXPECT_EQ(a.types, b.types);
  }

  ASSERT_EQ(flat->taxonomy().size(), HeapKb().taxonomy().size());
  for (TypeId t = 0; t < HeapKb().taxonomy().size(); ++t) {
    EXPECT_EQ(flat->taxonomy().TypeName(t), HeapKb().taxonomy().TypeName(t));
    EXPECT_EQ(flat->taxonomy().Parent(t), HeapKb().taxonomy().Parent(t));
  }
}

TEST(FlatKbTest, RoundTripPreservesDictionaryBitExactly) {
  std::unique_ptr<KnowledgeBase> flat = LoadFlatCopy();
  std::vector<std::string> names = HeapKb().dictionary().AllNames();
  EXPECT_EQ(flat->dictionary().AllNames(), names);
  for (const std::string& name : names) {
    std::span<const NameCandidate> a = HeapKb().dictionary().Lookup(name);
    std::span<const NameCandidate> b = flat->dictionary().Lookup(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].entity, b[i].entity);
      EXPECT_EQ(a[i].anchor_count, b[i].anchor_count);
      // Priors are stored, not recomputed: bit-equality, not EQ_NEAR.
      EXPECT_EQ(a[i].prior, b[i].prior) << name << " #" << i;
    }
  }
  // Case-dispatch semantics survive the flat round trip.
  EXPECT_EQ(flat->dictionary().MeanAmbiguity(),
            HeapKb().dictionary().MeanAmbiguity());
}

TEST(FlatKbTest, RoundTripPreservesLinksAndKeyphrasesBitExactly) {
  std::unique_ptr<KnowledgeBase> flat = LoadFlatCopy();
  const KeyphraseStore& a = HeapKb().keyphrases();
  const KeyphraseStore& b = flat->keyphrases();
  ASSERT_EQ(b.word_count(), a.word_count());
  ASSERT_EQ(b.phrase_count(), a.phrase_count());
  ASSERT_EQ(flat->links().link_count(), HeapKb().links().link_count());

  auto equal_rows = [](std::span<const EntityId> x,
                       std::span<const EntityId> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  for (EntityId e = 0; e < HeapKb().entity_count(); ++e) {
    EXPECT_TRUE(
        equal_rows(HeapKb().links().InLinks(e), flat->links().InLinks(e)));
    EXPECT_TRUE(
        equal_rows(HeapKb().links().OutLinks(e), flat->links().OutLinks(e)));

    const std::span<const PhraseId> pa = a.EntityPhrases(e);
    const std::span<const PhraseId> pb = b.EntityPhrases(e);
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    for (PhraseId p : pa) {
      EXPECT_EQ(a.PhraseText(p), b.PhraseText(p));
      // Derived weights are stored verbatim in the snapshot.
      EXPECT_EQ(a.PhraseMi(e, p), b.PhraseMi(e, p));
      EXPECT_EQ(a.PhraseDf(p), b.PhraseDf(p));
    }
    const std::span<const WordId> wa = a.EntityWords(e);
    const std::span<const WordId> wb = b.EntityWords(e);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()));
    for (WordId w : wa) {
      EXPECT_EQ(a.KeywordNpmi(e, w), b.KeywordNpmi(e, w));
    }
  }
  for (WordId w = 0; w < a.word_count(); ++w) {
    EXPECT_EQ(a.WordText(w), b.WordText(w));
    EXPECT_EQ(a.WordDf(w), b.WordDf(w));
    EXPECT_EQ(a.WordIdf(w), b.WordIdf(w));
    EXPECT_EQ(b.FindWord(a.WordText(w)), w);
  }
}

TEST(FlatKbTest, SerializationIsDeterministic) {
  // Re-serializing a flat-loaded KB reproduces the file byte for byte:
  // the flat arrays ARE the canonical representation.
  std::unique_ptr<KnowledgeBase> flat = LoadFlatCopy();
  EXPECT_EQ(flat::SerializeFlatSnapshot(*flat), FlatBytes());
  EXPECT_EQ(flat::SerializeFlatSnapshot(HeapKb()), FlatBytes());
}

TEST(FlatKbTest, DisambiguationIsByteIdenticalToHeap) {
  std::unique_ptr<KnowledgeBase> flat = LoadFlatCopy();

  core::CandidateModelStore heap_models(&HeapKb());
  core::MilneWittenRelatedness heap_mw(&HeapKb());
  core::Aida heap_aida(&heap_models, &heap_mw, core::AidaOptions());

  core::CandidateModelStore flat_models(flat.get());
  core::MilneWittenRelatedness flat_mw(flat.get());
  core::Aida flat_aida(&flat_models, &flat_mw, core::AidaOptions());

  size_t docs = 0;
  for (const corpus::Document& doc : TestWorld::Get().corpus) {
    if (++docs > 8) break;
    core::DisambiguationProblem problem = ToProblem(doc);
    core::DisambiguationResult a = heap_aida.Disambiguate(problem, {});
    core::DisambiguationResult b = flat_aida.Disambiguate(problem, {});
    ASSERT_EQ(a.mentions.size(), b.mentions.size());
    for (size_t m = 0; m < a.mentions.size(); ++m) {
      EXPECT_EQ(a.mentions[m].entity, b.mentions[m].entity);
      // Scores are doubles computed from stored weights: bit-equality.
      EXPECT_EQ(a.mentions[m].score, b.mentions[m].score);
      EXPECT_EQ(a.mentions[m].candidate_entities,
                b.mentions[m].candidate_entities);
      EXPECT_EQ(a.mentions[m].candidate_scores, b.mentions[m].candidate_scores);
    }
    // Work counters match exactly; wall-clock fields naturally differ.
    EXPECT_EQ(a.stats.relatedness_computations,
              b.stats.relatedness_computations);
    EXPECT_EQ(a.stats.graph_iterations, b.stats.graph_iterations);
  }
}

TEST(FlatKbTest, FileRoundTripUsesMmap) {
  const std::string path = ::testing::TempDir() + "/flat_kb_test.fkb";
  ASSERT_TRUE(flat::SaveFlatSnapshot(HeapKb(), path).ok());

  auto direct = flat::LoadFlatSnapshot(path);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE((*direct)->flat_backed());
  EXPECT_EQ((*direct)->entity_count(), HeapKb().entity_count());

  // The one file loader serves the same mapping.
  auto generic = LoadKnowledgeBase(path);
  ASSERT_TRUE(generic.ok()) << generic.status().ToString();
  EXPECT_TRUE((*generic)->flat_backed());
}

TEST(FlatKbTest, SavingOverAMappedFileLeavesTheLoadedKbIntact) {
  // Regenerate-then-reload saves the new KB to the path a live
  // generation has mmap'd. Truncating that file in place would shrink
  // the mapping under the live KB (SIGBUS on its next read past the new
  // end) or hand it bytes that were never validated; the save must
  // replace the file instead.
  const std::string path = ::testing::TempDir() + "/flat_kb_overwrite.fkb";
  ASSERT_TRUE(flat::SaveFlatSnapshot(HeapKb(), path).ok());
  auto live = LoadKnowledgeBase(path);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  KbBuilder builder;
  const EntityId solo = builder.AddEntity("Solo");
  builder.AddName("Solo", solo, 1);
  ASSERT_TRUE(flat::SaveFlatSnapshot(*std::move(builder).Build(), path).ok());

  // Re-serializing reads every array of the live KB: bit-identical.
  EXPECT_EQ(flat::SerializeFlatSnapshot(**live), FlatBytes());
  auto saved = LoadKnowledgeBase(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ((*saved)->entity_count(), 1u);
  std::remove(path.c_str());
}

TEST(FlatKbTest, SnapshotRegistryPublishesFlatFile) {
  const std::string path = ::testing::TempDir() + "/flat_kb_registry.fkb";
  ASSERT_TRUE(flat::SaveFlatSnapshot(HeapKb(), path).ok());

  SnapshotRegistry registry;
  auto snapshot = registry.ReloadFromFile(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE((*snapshot)->has_knowledge_base());
  EXPECT_TRUE((*snapshot)->knowledge_base().flat_backed());

  core::DisambiguationProblem problem =
      ToProblem(TestWorld::Get().corpus.front());
  core::DisambiguationResult result =
      (*snapshot)->system().Disambiguate(problem, {});
  EXPECT_EQ(result.mentions.size(), problem.mentions.size());
}

TEST(FlatKbTest, RejectsUnalignedBuffer) {
  const std::string bytes = FlatBytes();
  std::vector<char> storage(bytes.size() + 1);
  std::memcpy(storage.data() + 1, bytes.data(), bytes.size());
  auto result = flat::LoadFlatSnapshotFromBuffer(
      std::string_view(storage.data() + 1, bytes.size()), nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("align"), std::string::npos);
}

TEST(FlatKbTest, RejectsGarbageAndEmpty) {
  EXPECT_FALSE(flat::LoadFlatSnapshotFromString("").ok());
  EXPECT_FALSE(flat::LoadFlatSnapshotFromString("garbage bytes here").ok());
  // The retired v1 record stream began with its own magic, 0xA1DA4B42.
  std::string v1 = FlatBytes();
  const uint32_t v1_magic = 0xA1DA4B42;
  std::memcpy(v1.data(), &v1_magic, sizeof(v1_magic));
  auto result = flat::LoadFlatSnapshotFromString(v1);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("magic"), std::string::npos);
}

TEST(FlatKbTest, RejectsVersionMismatch) {
  std::string corrupt = FlatBytes();
  // FileHeader: u32 magic, then u32 version.
  corrupt[4] = 0x7F;
  auto result = flat::LoadFlatSnapshotFromString(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("version"), std::string::npos);
}

TEST(FlatKbTest, RejectsTruncationAtEveryStride) {
  const std::string bytes = FlatBytes();
  std::vector<size_t> cuts;
  for (size_t cut = 0; cut < bytes.size(); cut += bytes.size() / 97 + 1) {
    cuts.push_back(cut);
  }
  for (size_t tail = 1; tail <= 16 && tail < bytes.size(); ++tail) {
    cuts.push_back(bytes.size() - tail);
  }
  for (size_t cut : cuts) {
    auto result = flat::LoadFlatSnapshotFromString(
        std::string_view(bytes.data(), cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_FALSE(result.status().ToString().empty()) << "cut at " << cut;
  }
}

TEST(FlatKbTest, RejectsTrailingBytes) {
  std::string grown = FlatBytes();
  grown += "junk";
  EXPECT_FALSE(flat::LoadFlatSnapshotFromString(grown).ok());
}

TEST(FlatKbTest, HeaderAndSectionTableBitFlipSweepNeverCrashes) {
  // Single-bit corruption across the header, the whole section table and
  // the meta section: every variant must load or fail with a Status —
  // never crash, abort, or trip a sanitizer (the ASan config reruns
  // this sweep).
  const std::string pristine = FlatBytes();
  const size_t section_count =
      static_cast<size_t>(flat::SectionId::kOutLinkTargets);  // ids are dense
  const size_t table_end = sizeof(flat::FileHeader) +
                           section_count * sizeof(flat::SectionEntry) +
                           sizeof(flat::MetaSection);
  const size_t span = std::min(pristine.size(), table_end);
  for (size_t byte = 0; byte < span; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = pristine;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto result = flat::LoadFlatSnapshotFromString(corrupt);
      if (!result.ok()) {
        EXPECT_FALSE(result.status().ToString().empty())
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(FlatKbTest, PayloadClobberSweepNeverCrashes) {
  // Overwrite eight-byte windows throughout the payload region (offset
  // tables, hash slots, id arrays, string pools) with 0xFF. A corrupted
  // window may still happen to validate; it must never reach undefined
  // behaviour or a CHECK abort.
  const std::string pristine = FlatBytes();
  for (size_t off = 0; off + 8 <= pristine.size();
       off += pristine.size() / 211 + 1) {
    std::string corrupt = pristine;
    for (size_t b = 0; b < 8; ++b) corrupt[off + b] = '\xFF';
    auto result = flat::LoadFlatSnapshotFromString(corrupt);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().ToString().empty()) << "offset " << off;
    }
  }
}

TEST(FlatKbTest, SmallBuilderKbRoundTrips) {
  // A tiny hand-built KB (including an empty-phrase-set entity and an
  // entity with no links) survives the flat round trip.
  KbBuilder builder;
  EntityId a = builder.AddEntity("Alpha");
  EntityId b = builder.AddEntity("Beta");
  EntityId c = builder.AddEntity("Gamma");
  builder.AddName("A", a, 3);
  builder.AddName("Alpha", a, 7);
  builder.AddName("Alpha", b, 1);
  builder.AddName("Gamma", c, 2);
  builder.AddKeyphrase(a, "rock guitar");
  builder.AddKeyphrase(b, "rock opera");
  builder.AddLink(a, b);
  builder.AddLink(b, a);
  std::unique_ptr<KnowledgeBase> kb = std::move(builder).Build();

  auto loaded =
      flat::LoadFlatSnapshotFromString(flat::SerializeFlatSnapshot(*kb));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const KnowledgeBase& flat_kb = **loaded;
  EXPECT_EQ(flat_kb.entity_count(), 3u);
  std::span<const NameCandidate> alpha = flat_kb.dictionary().Lookup("Alpha");
  ASSERT_EQ(alpha.size(), 2u);
  EXPECT_EQ(alpha[0].entity, a);
  EXPECT_EQ(alpha[1].entity, b);
  EXPECT_TRUE(flat_kb.keyphrases().EntityPhrases(c).empty());
  EXPECT_TRUE(flat_kb.links().InLinks(c).empty());
  EXPECT_EQ(flat_kb.links().link_count(), 2u);
}

}  // namespace
}  // namespace aida::kb
