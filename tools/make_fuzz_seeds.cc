// Regenerates the checked-in seed corpora under tests/fuzz/corpus/.
//
// Valid seeds are produced through the library's own serializers so they
// track the current format; the crash-* regression inputs are crafted
// byte-for-byte (as literal text or through a serializer) to reproduce
// crashers that were found while fuzzing and have since been fixed — the
// fuzz_replay_* ctest tests replay them forever.
//
// Usage: make_fuzz_seeds [corpus_root]   (default: tests/fuzz/corpus)

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "corpus/corpus_io.h"
#include "ingest/wiki_importer.h"
#include "kb/flat/flat_snapshot.h"
#include "util/check.h"

namespace {

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  AIDA_CHECK(out.good(), "cannot open seed file for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  AIDA_CHECK(out.good(), "short write on seed file");
  std::printf("wrote %s (%zu bytes)\n", (dir / name).c_str(), bytes.size());
}

std::string PageOne() {
  return aida::ingest::RenderWikiPage(
      "Jimmy_Page", {"person", "musician"}, {"Page", "Jimmy Page"},
      {{"Led_Zeppelin", "the band"}, {"Gibson_Les_Paul", ""}},
      "Jimmy Page is an english rock guitarist of [[Led_Zeppelin]] fame.\n"
      "He played a [[Gibson_Les_Paul|gibson guitar]] on stage.\n");
}

std::string PageTwo() {
  return aida::ingest::RenderWikiPage(
      "Led_Zeppelin", {"band"}, {"Zeppelin"}, {{"Jimmy_Page", "Page"}},
      "Led Zeppelin was founded by [[Jimmy_Page]] in 1968.\n");
}

aida::corpus::Corpus SmallCorpus() {
  aida::corpus::Corpus corpus;
  aida::corpus::Document doc;
  doc.id = "doc_0";
  doc.day = 4;
  doc.topic = 2;
  doc.tokens = {"The", "Page", "concert", "sold", "out", "."};
  aida::corpus::GoldMention m;
  m.begin_token = 1;
  m.end_token = 2;
  m.gold_entity = 314;
  m.surface = "Page";
  doc.mentions.push_back(m);
  corpus.push_back(doc);
  return corpus;
}

aida::corpus::Corpus EmptyDocCorpus() {
  aida::corpus::Corpus corpus;
  aida::corpus::Document doc;
  doc.id = "empty_doc";
  doc.day = 0;
  doc.topic = 0;
  corpus.push_back(doc);
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root =
      argc > 1 ? argv[1] : "tests/fuzz/corpus";

  // ---- flat_kb -----------------------------------------------------------
  {
    aida::ingest::WikiImporter importer;
    AIDA_CHECK_OK(importer.AddPage(PageOne()));
    AIDA_CHECK_OK(importer.AddPage(PageTwo()));
    std::string flat_bytes =
        aida::kb::flat::SerializeFlatSnapshot(*std::move(importer).Build());
    const auto dir = root / "flat_kb";
    WriteSeed(dir, "seed_small.fkb", flat_bytes);
    WriteSeed(dir, "seed_truncated.fkb",
              flat_bytes.substr(0, flat_bytes.size() / 2));
    // Header-only prefix: magic + version survive, the section table is
    // cut off mid-entry.
    WriteSeed(dir, "seed_header_only.fkb", flat_bytes.substr(0, 40));
    // Valid layout with the meta entity count inflated: exercises the
    // count/section-size cross-checks rather than the header checks.
    std::string inflated = flat_bytes;
    AIDA_CHECK(inflated.size() > 1000);
    const size_t meta_offset =
        32 /* FileHeader */ + 37 * 24 /* section table */;
    for (size_t b = 0; b < 8; ++b) inflated[meta_offset + b] = '\x7F';
    WriteSeed(dir, "seed_bad_meta.fkb", inflated);
  }

  // ---- wiki_importer -----------------------------------------------------
  {
    const auto dir = root / "wiki_importer";
    WriteSeed(dir, "seed_page.txt", PageOne());
    std::string multi = PageOne();
    multi.push_back('\0');  // page separator understood by the harness
    multi += PageTwo();
    WriteSeed(dir, "seed_multi.bin", multi);
    WriteSeed(dir, "seed_malformed.txt",
              "= Broken =\nsome text with an [[unterminated link\n");
    // Crasher: the literal category "entity" collided with the root
    // taxonomy type inside Build() and aborted the process.
    WriteSeed(dir, "crash-category-entity.txt",
              "= Anything =\nCATEGORY: entity\nBody text.\n");
  }

  // ---- corpus_io ---------------------------------------------------------
  {
    const auto dir = root / "corpus_io";
    WriteSeed(dir, "seed_doc.txt", aida::corpus::SerializeCorpus(SmallCorpus()));
    // Regression: a zero-token document serializes with a blank token line
    // that the line-splitter drops; the parser used to misread #MENTIONS
    // as the token line and fail the round-trip.
    WriteSeed(dir, "crash-empty-tokens.txt",
              aida::corpus::SerializeCorpus(EmptyDocCorpus()));
    WriteSeed(dir, "seed_malformed.txt",
              "#DOC d 1 1\n#TOKENS\na b c\n#MENTIONS\n0 9 - - a\n#END\n");
  }

  // ---- tokenizer ---------------------------------------------------------
  {
    const auto dir = root / "tokenizer";
    WriteSeed(dir, "seed_ascii.txt",
              "Dylan's long-tail guitar broke! Was it Page's? No.\n");
    std::string utf8;
    utf8 += "\xEF\xBB\xBF";          // BOM
    utf8 += "caf\xC3\xA9 ";          // 2-byte sequence
    utf8 += "\xE2\x82\xAC" "100 ";   // 3-byte euro sign
    utf8 += "\xF0\x9F\x98\x80 ";     // 4-byte emoji
    utf8 += "\x80\xBF ";             // lone continuation bytes
    utf8 += "\xC0\xAF ";             // overlong encoding
    utf8 += "\xE2\x82";              // truncated sequence at end
    utf8.push_back('\0');            // embedded NUL
    utf8 += " tail.";
    WriteSeed(dir, "seed_utf8.bin", utf8);
  }

  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
