// Command-line interface to the library:
//
//   aida_cli generate-kb <out.fkb> [entities] [topics] [seed]
//       Generates a synthetic knowledge base and saves it as a flat
//       snapshot (kb/flat/flat_snapshot.h).
//   aida_cli inspect <kb>
//       Prints knowledge-base statistics.
//   aida_cli annotate <kb> [mw|kore|kore-lsh-g|kore-lsh-f]
//       Reads text from stdin (one document per line), recognizes and
//       disambiguates mentions, prints one "mention -> entity" line each.
//   aida_cli generate-corpus <out.fkb> <out.corpus> [docs] [seed]
//       Generates a synthetic world AND a matching gold-annotated corpus
//       (the equivalent of the datasets the paper published).
//
// Counts and seeds are base-10 integers, counts at least 1; anything else
// prints the usage and exits 2. A KB that fails to load exits 1.
//
// The synthetic generator stands in for a Wikipedia/YAGO importer; the
// annotate pipeline (tokenizer -> NER -> AIDA) is the production path.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/aida.h"
#include "corpus/corpus_io.h"
#include "kb/flat/flat_snapshot.h"
#include "kb/kb_serialization.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "nlp/ner_tagger.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
#include "text/tokenizer.h"

using namespace aida;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  aida_cli generate-kb <out.fkb> [entities] [topics] [seed]\n"
      "  aida_cli inspect <kb>\n"
      "  aida_cli annotate <kb> [mw|kore|kore-lsh-g|kore-lsh-f]\n"
      "  aida_cli generate-corpus <out.fkb> <out.corpus> [docs] [seed]\n");
  return 2;
}

/// Parses all of `text` as a base-10 integer: no sign, no blanks, no
/// trailing characters, no overflow.
template <typename T>
bool ParseNumber(const char* text, T* value) {
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, *value, 10);
  return error == std::errc() && stop == end;
}

bool ParseCount(const char* text, size_t* count) {
  return ParseNumber(text, count) && *count > 0;
}

int GenerateKb(int argc, char** argv) {
  if (argc < 1) return Usage();
  synth::WorldConfig config;  // 4000 entities, 40 topics, seed 42
  if ((argc > 1 && !ParseCount(argv[1], &config.num_entities)) ||
      (argc > 2 && !ParseCount(argv[2], &config.num_topics)) ||
      (argc > 3 && !ParseNumber(argv[3], &config.seed))) {
    return Usage();
  }
  config.num_shared_names = std::max<size_t>(20, config.num_entities / 4);

  synth::World world = synth::WorldGenerator(config).Generate();
  util::Status status =
      kb::flat::SaveFlatSnapshot(*world.knowledge_base, argv[0]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu entities, %zu names, %zu links\n", argv[0],
              world.knowledge_base->entity_count(),
              world.knowledge_base->dictionary().NameCount(),
              world.knowledge_base->links().link_count());
  return 0;
}

int Inspect(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto kb = kb::LoadKnowledgeBase(argv[0]);
  if (!kb.ok()) {
    std::fprintf(stderr, "error: %s\n", kb.status().ToString().c_str());
    return 1;
  }
  const kb::KnowledgeBase& base = **kb;
  std::printf("entities:        %zu\n", base.entity_count());
  std::printf("names:           %zu\n", base.dictionary().NameCount());
  std::printf("mean ambiguity:  %.2f candidates/name\n",
              base.dictionary().MeanAmbiguity());
  std::printf("keyphrases:      %zu distinct (%zu keywords)\n",
              base.keyphrases().phrase_count(),
              base.keyphrases().word_count());
  std::printf("links:           %zu\n", base.links().link_count());
  std::printf("types:           %zu\n", base.taxonomy().size());
  return 0;
}

int Annotate(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto kb = kb::LoadKnowledgeBase(argv[0]);
  if (!kb.ok()) {
    std::fprintf(stderr, "error: %s\n", kb.status().ToString().c_str());
    return 1;
  }
  const kb::KnowledgeBase& base = **kb;
  std::string measure_name = argc > 1 ? argv[1] : "mw";

  core::CandidateModelStore models(&base);
  core::MilneWittenRelatedness mw(&base);
  kore::KoreRelatedness kore;
  std::unique_ptr<kore::KoreLshRelatedness> lsh;
  const core::RelatednessMeasure* measure = &mw;
  if (measure_name == "kore") {
    measure = &kore;
  } else if (measure_name == "kore-lsh-g") {
    lsh = std::make_unique<kore::KoreLshRelatedness>(
        kore::KoreLshRelatedness::Good(&base.keyphrases()));
    measure = lsh.get();
  } else if (measure_name == "kore-lsh-f") {
    lsh = std::make_unique<kore::KoreLshRelatedness>(
        kore::KoreLshRelatedness::Fast(&base.keyphrases()));
    measure = lsh.get();
  } else if (measure_name != "mw") {
    return Usage();
  }

  core::Aida aida(&models, measure, core::AidaOptions());
  text::Tokenizer tokenizer;
  nlp::NerTagger ner(&base.dictionary());

  std::string line;
  size_t doc_id = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    text::TokenSequence tokens = tokenizer.Tokenize(line);
    std::vector<nlp::MentionSpan> mentions = ner.Recognize(tokens);
    std::vector<std::string> token_texts;
    for (const text::Token& t : tokens) token_texts.push_back(t.text);

    core::DisambiguationProblem problem;
    problem.tokens = &token_texts;
    for (const nlp::MentionSpan& span : mentions) {
      core::ProblemMention pm;
      pm.surface = span.text;
      pm.begin_token = span.begin_token;
      pm.end_token = span.end_token;
      problem.mentions.push_back(std::move(pm));
    }
    core::DisambiguationResult result = aida.Disambiguate(problem, {});
    for (size_t m = 0; m < mentions.size(); ++m) {
      std::printf("doc%zu\t%s\t%s\t%.4f\n", doc_id,
                  mentions[m].text.c_str(),
                  result.mentions[m].entity == kb::kNoEntity
                      ? "<OOE>"
                      : base.entities()
                            .Get(result.mentions[m].entity)
                            .canonical_name.c_str(),
                  result.mentions[m].score);
    }
    ++doc_id;
  }
  return 0;
}

int GenerateCorpus(int argc, char** argv) {
  if (argc < 2) return Usage();
  synth::CorpusPreset preset = synth::ConllPreset();
  if ((argc > 2 && !ParseCount(argv[2], &preset.corpus.num_documents)) ||
      (argc > 3 && !ParseNumber(argv[3], &preset.world.seed))) {
    return Usage();
  }
  if (argc > 3) preset.corpus.seed = preset.world.seed ^ 0xC0FFEE;
  synth::World world = synth::WorldGenerator(preset.world).Generate();
  corpus::Corpus docs =
      synth::CorpusGenerator(&world, preset.corpus).Generate();
  util::Status status =
      kb::flat::SaveFlatSnapshot(*world.knowledge_base, argv[0]);
  if (status.ok()) status = corpus::SaveCorpus(docs, argv[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  size_t mentions = 0;
  for (const corpus::Document& doc : docs) mentions += doc.mentions.size();
  std::printf("wrote %s (%zu entities) and %s (%zu docs, %zu mentions)\n",
              argv[0], world.knowledge_base->entity_count(), argv[1],
              docs.size(), mentions);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "generate-kb") == 0) {
    return GenerateKb(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "inspect") == 0) return Inspect(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "annotate") == 0) {
    return Annotate(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "generate-corpus") == 0) {
    return GenerateCorpus(argc - 2, argv + 2);
  }
  return Usage();
}
