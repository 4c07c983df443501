// The NED serving benchmark: raw text in, annotation out.
//
// One run generates its inputs from --seed, writes the CoNLL-like world's
// knowledge base as a flat KB file, and serves one workload through the
// whole pipeline:
//
//   raw text ─ text::Tokenizer ─ nlp::NerTagger ─ serve::NedService
//                                                 (kb::KbSnapshot from
//                                                  kb::LoadKnowledgeBase)
//
// It checks a seeded sample of responses byte for byte against a serial,
// uncached Disambiguate of the same problem, and prints the end-to-end
// metrics (--trace 0) or the per-layer split (--trace 1) as the last line
// of standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage:
//   nedbench --workload news_stream|heavy_kore --seed N
//            --seconds S --trace 0|1 [--work-dir DIR]
//
// Workloads (one 4,000-entity CoNLL-like world, service defaults except
// num_threads = nproc):
//   news_stream  ~22-mention documents, none served twice, Milne-Witten
//                behind the snapshot cache, open-loop Poisson arrivals at
//                a fixed rate; latency counts from each request's due time.
//   heavy_kore   ~53-mention documents, more than a window serves, so
//                none is served twice, KORE-LSH-G relatedness, nproc
//                closed-loop clients.
// Each workload serves a fixed corpus, the same in every run: the seed
// draws the order in which it is served and the arrival times. A few rare
// documents with a costly graph solve set p99, so a corpus drawn from the
// seed would make p99 depend on how many of them it happens to hold.
// A run measures for --seconds and, if that completes fewer than 1,000
// requests, until 1,000 have completed. Latency p50 and p99 (and a closed
// loop's throughput) are medians over the slices of the window in which
// the hypervisor stole least from the machine; see stats.h:Summarize.
//
// --trace 1 serves the same inputs twice, untraced and then with the
// decorators of tracing.h, reports the per-layer split of the traced pass
// and the traced-minus-untraced difference as the tracing overhead, and
// writes the traced pass's spans to <work-dir> as Chrome trace JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/aida.h"
#include "core/relatedness.h"
#include "corpus/document.h"
#include "kb/flat/flat_snapshot.h"
#include "kb/kb_serialization.h"
#include "kb/snapshot_registry.h"
#include "kore/kore_lsh.h"
#include "nlp/ner_tagger.h"
#include "serve/ned_service.h"
#include "stats.h"
#include "synth/corpus_generator.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
#include "text/tokenizer.h"
#include "tracing.h"
#include "util/alloc_probe.h"
#include "util/stopwatch.h"

using namespace aida;
using nedbench::NowNs;

namespace {

constexpr size_t kMinRequests = 1000;
/// A window never lasts longer than this, so that a traced run, which
/// measures twice, ends within 180 s even when the program gets slower.
constexpr double kMaxWindowSeconds = 70.0;
/// setup_s is the median of this many set-ups.
constexpr int kSetupRepeats = 5;
/// Corpus seed of the warm-up set, the same in every run and disjoint
/// from every workload's own corpus seed.
constexpr uint64_t kWarmupSeed = 0x3A110000;

enum class Loop { kOpen, kClosed };
enum class Measure { kMilneWitten, kKoreLshGood };

struct Workload {
  const char* name;
  Loop loop;
  Measure measure;
  size_t doc_tokens;
  size_t entities_per_doc;
  double mention_repeat;
  /// Seed of the workload's corpus, the same in every run.
  uint64_t corpus_seed;
  /// Open loop: Poisson arrival rate. Closed loop: a throughput well
  /// above the program's, so that a window serves each document at most
  /// once. Repeats would be cheaper (their relatedness is cached), so a
  /// host that runs faster would serve more of them and run faster still.
  double docs_per_second;
  size_t warmup_docs;
  /// Documents whose every response is compared byte for byte with the
  /// serial, uncached gold.
  size_t gate_samples;
};

// ConllPreset's document shape (216 target tokens, 14 entities x 1.6)
// gives ~227 tokens and ~22 mentions; the heavy shape is bench_serve's
// (500 tokens, 35 entities x 1.5, ~53 mentions). 500 arrivals/s is about
// a third of what 4 workers sustain on news documents on a 4-core Xeon VM:
// the queue builds behind costly documents, and a host that slows the
// service by half for a while still sheds nothing.
constexpr Workload kWorkloads[] = {
    {"news_stream", Loop::kOpen, Measure::kMilneWitten, 216, 14, 1.6,
     0x5E550000, 500.0, 64, 32},
    {"heavy_kore", Loop::kClosed, Measure::kKoreLshGood, 500, 35, 1.5,
     0x4EA70000, 100.0, 8, 6},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

size_t Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return nedbench::SplitMix64(seed * 0x100000001B3ull + stream).Next();
}

// ---------------------------------------------------------------------
// Inputs

/// One generated document as raw text, with its gold mentions as byte
/// ranges of that text.
struct InputDoc {
  std::string text;
  std::vector<std::pair<size_t, size_t>> gold_spans;
  std::vector<kb::EntityId> gold_entities;
};

InputDoc ToInput(const corpus::Document& doc) {
  InputDoc input;
  std::vector<size_t> offsets;
  offsets.reserve(doc.tokens.size());
  for (const std::string& token : doc.tokens) {
    if (!input.text.empty()) input.text.push_back(' ');
    offsets.push_back(input.text.size());
    input.text += token;
  }
  for (const corpus::GoldMention& mention : doc.mentions) {
    const size_t last = mention.end_token - 1;
    input.gold_spans.emplace_back(offsets[mention.begin_token],
                                  offsets[last] + doc.tokens[last].size());
    input.gold_entities.push_back(mention.gold_entity);
  }
  return input;
}

std::vector<InputDoc> GenerateDocs(const synth::World& world,
                                   const Workload& workload, size_t count,
                                   uint64_t corpus_seed) {
  synth::CorpusConfig config = synth::ConllPreset().corpus;
  config.seed = corpus_seed;
  config.num_documents = count;
  config.doc_tokens = workload.doc_tokens;
  config.entities_per_doc = workload.entities_per_doc;
  config.mention_repeat = workload.mention_repeat;
  std::vector<InputDoc> docs;
  docs.reserve(count);
  for (const corpus::Document& doc :
       synth::CorpusGenerator(&world, config).Generate()) {
    docs.push_back(ToInput(doc));
  }
  return docs;
}

/// Evaluates every pair in entity-id order. KORE's RelatednessOfModels
/// sums phrase overlaps in an order that follows its arguments when both
/// entities have equally many keyphrases, so KORE(a, b) and KORE(b, a) can
/// differ in the last bit. The per-snapshot cache keys a pair by its
/// unordered ids and serves whichever orientation it computed first, which
/// makes served annotations differ from the serial, uncached gold for some
/// documents. A fixed order makes the measure bit-symmetric at the cost of
/// one comparison per evaluation.
class EntityOrdered final : public core::RelatednessMeasure {
 public:
  explicit EntityOrdered(std::unique_ptr<core::RelatednessMeasure> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    return b.entity < a.entity ? inner_->Relatedness(b, a)
                               : inner_->Relatedness(a, b);
  }

  bool has_pair_filter() const override { return inner_->has_pair_filter(); }

  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const core::Candidate*>& candidates) const override {
    return inner_->FilterPairs(candidates);
  }

 private:
  std::unique_ptr<core::RelatednessMeasure> inner_;
};

nedbench::MeasureFactory BaseMeasure(Measure measure) {
  if (measure == Measure::kKoreLshGood) {
    return [](const kb::KnowledgeBase& kb)
               -> std::unique_ptr<core::RelatednessMeasure> {
      return std::make_unique<EntityOrdered>(
          std::make_unique<kore::KoreLshRelatedness>(
              kore::KoreLshRelatedness::Good(&kb.keyphrases())));
    };
  }
  return [](const kb::KnowledgeBase& kb)
             -> std::unique_ptr<core::RelatednessMeasure> {
    return std::make_unique<core::MilneWittenRelatedness>(&kb);
  };
}

// ---------------------------------------------------------------------
// Front end

/// Front-end spans of one request, recorded in the traced run only.
struct FrontEndTrace {
  int64_t start_ns = 0;
  int64_t tokenized_ns = 0;
  int64_t recognized_ns = 0;
  int64_t end_ns = 0;
  uint64_t tokenize_allocs = 0;
  uint64_t recognize_allocs = 0;
};

/// A request's caller-owned state: the problem points at `tokens`, which
/// must outlive the request's future.
struct Pending {
  std::vector<std::string> tokens;
  /// Byte ranges of the recognized mentions, parallel to the problem's.
  std::vector<std::pair<size_t, size_t>> spans;
};

core::DisambiguationProblem FrontEnd(const text::Tokenizer& tokenizer,
                                     const nlp::NerTagger& tagger,
                                     const std::string& raw, Pending* pending,
                                     FrontEndTrace* trace) {
  text::TokenSequence tokens;
  std::vector<nlp::MentionSpan> mentions;
  if (trace == nullptr) {
    tokens = tokenizer.Tokenize(raw);
    mentions = tagger.Recognize(tokens);
  } else {
    trace->start_ns = NowNs();
    {
      util::ScopedAllocationCount allocations;
      tokens = tokenizer.Tokenize(raw);
      trace->tokenize_allocs = allocations.allocations();
    }
    trace->tokenized_ns = NowNs();
    {
      util::ScopedAllocationCount allocations;
      mentions = tagger.Recognize(tokens);
      trace->recognize_allocs = allocations.allocations();
    }
    trace->recognized_ns = NowNs();
  }
  core::DisambiguationProblem problem;
  pending->tokens.clear();
  pending->spans.clear();
  pending->tokens.reserve(tokens.size());
  for (text::Token& token : tokens) {
    pending->tokens.push_back(std::move(token.text));
  }
  problem.tokens = &pending->tokens;
  problem.mentions.reserve(mentions.size());
  for (nlp::MentionSpan& span : mentions) {
    pending->spans.emplace_back(tokens[span.begin_token].begin,
                                tokens[span.end_token - 1].end);
    core::ProblemMention mention;
    mention.surface = std::move(span.text);
    mention.begin_token = span.begin_token;
    mention.end_token = span.end_token;
    problem.mentions.push_back(std::move(mention));
  }
  if (trace != nullptr) trace->end_ns = NowNs();
  return problem;
}

// ---------------------------------------------------------------------
// Correctness gate

/// The annotation as bytes: chosen entity, score and every candidate's
/// entity and score, bit for bit. Timing stats are left out.
std::string AnnotationBytes(const core::DisambiguationResult& result) {
  std::string out;
  auto put = [&out](const auto& value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  put(result.mentions.size());
  for (const core::MentionResult& mention : result.mentions) {
    put(mention.entity);
    put(mention.chose_placeholder);
    put(mention.score);
    put(mention.candidate_entities.size());
    for (size_t c = 0; c < mention.candidate_entities.size(); ++c) {
      put(mention.candidate_entities[c]);
      put(mention.candidate_scores[c]);
      const bool placeholder = mention.candidate_is_placeholder[c];
      put(placeholder);
    }
  }
  return out;
}

/// Gold annotations of the sampled documents, from a serial Disambiguate
/// on an uncached stack over the same flat KB file.
struct Gate {
  /// Per document: index into `gold`, or -1 when not sampled.
  std::vector<int> slot;
  std::vector<std::string> gold;
};

util::Status BuildGate(const std::string& kb_path, const Workload& workload,
                       const std::vector<InputDoc>& docs, size_t eligible,
                       uint64_t seed, Gate* gate) {
  util::StatusOr<std::unique_ptr<kb::KnowledgeBase>> loaded =
      kb::LoadKnowledgeBase(kb_path);
  if (!loaded.ok()) return loaded.status();
  const kb::KnowledgeBase& kb = **loaded;
  core::CandidateModelStore models(&kb);
  std::unique_ptr<core::RelatednessMeasure> measure =
      BaseMeasure(workload.measure)(kb);
  core::Aida serial(&models, measure.get(), core::AidaOptions());
  text::Tokenizer tokenizer;
  nlp::NerTagger tagger(&kb.dictionary());

  gate->slot.assign(docs.size(), -1);
  nedbench::SplitMix64 rng(Mix(seed, 3));
  const size_t samples = std::min(workload.gate_samples, eligible);
  while (gate->gold.size() < samples) {
    const size_t doc = rng.Next() % eligible;
    if (gate->slot[doc] >= 0) continue;
    Pending pending;
    core::DisambiguationProblem problem =
        FrontEnd(tokenizer, tagger, docs[doc].text, &pending, nullptr);
    gate->slot[doc] = static_cast<int>(gate->gold.size());
    gate->gold.push_back(AnnotationBytes(serial.Disambiguate(problem, {})));
  }
  return util::Status::Ok();
}

// ---------------------------------------------------------------------
// Serving stack and set-up

struct Stack {
  std::shared_ptr<const kb::KbSnapshot> snapshot;
  std::unique_ptr<nlp::NerTagger> tagger;
  std::unique_ptr<serve::NedService> service;
};

struct SetupTimes {
  double load_s = 0.0;
  double create_s = 0.0;
  /// Service start plus the warm-up set.
  double warmup_s = 0.0;
  double total_s() const { return load_s + create_s + warmup_s; }
};

/// Loads the flat KB, builds the snapshot, starts the service and serves
/// the warm-up set through the whole pipeline.
util::Status Setup(const std::string& kb_path,
                   const kb::SnapshotOptions& options,
                   const std::vector<InputDoc>& warmup,
                   const text::Tokenizer& tokenizer, Stack* stack,
                   SetupTimes* times) {
  util::Stopwatch watch;
  util::StatusOr<std::unique_ptr<kb::KnowledgeBase>> loaded =
      kb::LoadKnowledgeBase(kb_path);
  if (!loaded.ok()) return loaded.status();
  times->load_s = watch.ElapsedSeconds();
  watch.Reset();
  util::StatusOr<std::shared_ptr<const kb::KbSnapshot>> created =
      kb::KbSnapshot::Create(
          std::shared_ptr<const kb::KnowledgeBase>(std::move(loaded).value()),
          1, "file:" + kb_path, options);
  if (!created.ok()) return created.status();
  stack->snapshot = std::move(created).value();
  times->create_s = watch.ElapsedSeconds();
  watch.Reset();

  stack->tagger = std::make_unique<nlp::NerTagger>(
      &stack->snapshot->dictionary());
  serve::NedServiceOptions service_options;
  service_options.num_threads = Nproc();
  stack->service =
      std::make_unique<serve::NedService>(stack->snapshot, service_options);
  std::vector<Pending> pending(warmup.size());
  std::vector<core::DisambiguationProblem> problems;
  problems.reserve(warmup.size());
  for (size_t i = 0; i < warmup.size(); ++i) {
    problems.push_back(FrontEnd(tokenizer, *stack->tagger, warmup[i].text,
                                &pending[i], nullptr));
  }
  for (const serve::ServeResult& result :
       stack->service->DisambiguateAll(problems)) {
    if (!result.status.ok()) return result.status;
  }
  times->warmup_s = watch.ElapsedSeconds();
  return util::Status::Ok();
}

/// Machine-wide CPU time from /proc/stat: the total of its first eight
/// fields, and steal, the time the hypervisor ran other guests on this
/// machine's CPUs.
nedbench::CpuPoint ReadCpuPoint() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  nedbench::CpuPoint point;
  point.t_ns = NowNs();
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    point.total += value;
    if (field == 7) point.steal = value;
  }
  return point;
}

/// Resident set size of this process, in MB.
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------
// Timed window

/// Everything recorded about one request in the traced run.
struct RequestTrace {
  uint64_t id = 0;
  uint32_t issuer = 0;  // 0: open-loop generator; c + 1: client c
  bool ok = false;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  double queue_s = 0.0;
  double service_s = 0.0;
  double total_s = 0.0;
  uint32_t mentions = 0;
  uint32_t gold = 0;
  uint32_t gold_found = 0;
  FrontEndTrace front;
  nedbench::CoreRecord core;
};

/// Counts and samples of one issuing thread.
struct Tally {
  size_t attempted = 0;
  size_t completed = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t errored = 0;
  size_t gold = 0;
  size_t gold_found = 0;
  size_t correct = 0;
  size_t compared = 0;
  size_t mismatches = 0;
  std::vector<nedbench::Sample> samples;
  std::vector<RequestTrace> traces;

  void Merge(Tally&& other) {
    attempted += other.attempted;
    completed += other.completed;
    shed += other.shed;
    expired += other.expired;
    errored += other.errored;
    gold += other.gold;
    gold_found += other.gold_found;
    correct += other.correct;
    compared += other.compared;
    mismatches += other.mismatches;
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    std::move(other.traces.begin(), other.traces.end(),
              std::back_inserter(traces));
  }
};

/// Books one finished request: status, accuracy against the gold spans,
/// and the byte-for-byte gate for sampled documents.
void Settle(const InputDoc& doc, const Pending& pending, int gate_slot,
            const Gate& gate, const serve::ServeResult& response,
            const nedbench::Sample& sample, Tally* tally,
            RequestTrace* trace) {
  ++tally->attempted;
  tally->gold += doc.gold_spans.size();
  if (trace != nullptr) {
    trace->queue_s = response.queue_seconds;
    trace->service_s = response.service_seconds;
    trace->total_s = response.total_seconds;
    trace->mentions = static_cast<uint32_t>(pending.spans.size());
    trace->gold = static_cast<uint32_t>(doc.gold_spans.size());
  }
  if (!response.status.ok()) {
    switch (response.status.code()) {
      case util::StatusCode::kResourceExhausted:
        ++tally->shed;
        break;
      case util::StatusCode::kDeadlineExceeded:
        ++tally->expired;
        break;
      default:
        ++tally->errored;
    }
    return;
  }
  ++tally->completed;
  tally->samples.push_back(sample);
  if (trace != nullptr) trace->ok = true;
  const std::vector<core::MentionResult>& chosen = response.result.mentions;
  if (chosen.size() != pending.spans.size()) {
    ++tally->mismatches;
    return;
  }
  size_t found = 0;
  for (size_t g = 0; g < doc.gold_spans.size(); ++g) {
    auto it = std::find(pending.spans.begin(), pending.spans.end(),
                        doc.gold_spans[g]);
    kb::EntityId entity = kb::kNoEntity;
    if (it != pending.spans.end()) {
      ++found;
      entity = chosen[it - pending.spans.begin()].entity;
    }
    if (entity == doc.gold_entities[g]) ++tally->correct;
  }
  tally->gold_found += found;
  if (trace != nullptr) trace->gold_found = static_cast<uint32_t>(found);
  if (gate_slot >= 0) {
    ++tally->compared;
    if (AnnotationBytes(response.result) != gate.gold[gate_slot]) {
      ++tally->mismatches;
    }
  }
}

struct Window {
  Tally tally;
  int64_t start_ns = 0;
  double seconds = 0.0;
  bool open_loop = false;
  /// The machine's CPU time, sampled every 100 ms through the window.
  std::vector<nedbench::CpuPoint> cpu;
};

void SleepUntilNs(int64_t due_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(due_ns)));
}

/// Open loop: one generator thread runs the front end at each due time
/// and submits; a collector thread settles responses in order. Latency
/// counts from the due time, so generator lag is part of it.
Window RunOpenLoop(const Stack& stack, const text::Tokenizer& tokenizer,
                   const std::vector<InputDoc>& docs,
                   const std::vector<double>& schedule, const Gate& gate,
                   nedbench::CoreRecordTable* table) {
  const size_t n = schedule.size();
  std::vector<Pending> pending(n);
  std::vector<std::future<serve::ServeResult>> futures(n);
  std::vector<int64_t> due_ns(n, 0);
  std::vector<int64_t> submit_ns(n, 0);
  Window window;
  Tally& tally = window.tally;
  tally.samples.reserve(n);
  if (table != nullptr) tally.traces.resize(n);
  std::atomic<size_t> submitted{0};
  int64_t last_completion_ns = 0;
  const int64_t origin_ns = NowNs() + 2'000'000;

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      for (size_t seen = submitted.load(std::memory_order_acquire); seen <= i;
           seen = submitted.load(std::memory_order_acquire)) {
        submitted.wait(seen, std::memory_order_acquire);
      }
      const serve::ServeResult response = futures[i].get();
      if (table != nullptr) table->Unregister(&pending[i].tokens);
      nedbench::Sample sample;
      sample.done_ns =
          submit_ns[i] + static_cast<int64_t>(1e9 * response.total_seconds);
      sample.latency_s = 1e-9 * static_cast<double>(sample.done_ns - due_ns[i]);
      last_completion_ns = std::max(last_completion_ns, sample.done_ns);
      Settle(docs[i], pending[i], gate.slot[i], gate, response, sample,
             &tally, table != nullptr ? &tally.traces[i] : nullptr);
      pending[i] = Pending();
    }
  });

  for (size_t i = 0; i < n; ++i) {
    due_ns[i] = origin_ns + static_cast<int64_t>(1e9 * schedule[i]);
    SleepUntilNs(due_ns[i]);
    RequestTrace* trace = table != nullptr ? &tally.traces[i] : nullptr;
    core::DisambiguationProblem problem =
        FrontEnd(tokenizer, *stack.tagger, docs[i].text, &pending[i],
                 trace != nullptr ? &trace->front : nullptr);
    if (trace != nullptr) {
      trace->id = i;
      trace->due_ns = due_ns[i];
      table->Register(&pending[i].tokens, &trace->core);
    }
    submit_ns[i] = NowNs();
    if (trace != nullptr) trace->submit_ns = submit_ns[i];
    futures[i] = stack.service->Submit(std::move(problem));
    submitted.store(i + 1, std::memory_order_release);
    submitted.notify_one();
  }
  collector.join();
  window.start_ns = origin_ns;
  window.seconds = 1e-9 * static_cast<double>(last_completion_ns - origin_ns);
  window.open_loop = true;
  return window;
}

/// Closed loop: nproc clients, each with one request outstanding, front
/// end included. Latency is the client's wall time for the request. The
/// clients take the documents in order, and start over if they run out.
Window RunClosedLoop(const Stack& stack, const text::Tokenizer& tokenizer,
                     const std::vector<InputDoc>& docs, double seconds,
                     const Gate& gate, nedbench::CoreRecordTable* table) {
  const size_t clients = Nproc();
  std::atomic<uint64_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(clients);
  const size_t expected = std::max<size_t>(
      kMinRequests, static_cast<size_t>(seconds * 4000.0 / clients));
  for (Tally& tally : tallies) tally.samples.reserve(expected);
  const int64_t start_ns = NowNs();
  const int64_t min_ns = static_cast<int64_t>(1e9 * seconds);
  const int64_t max_ns = static_cast<int64_t>(1e9 * kMaxWindowSeconds);

  auto client = [&](size_t c) {
    Tally& tally = tallies[c];
    Pending pending;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
      const size_t doc = id % docs.size();
      RequestTrace trace;
      RequestTrace* traced = table != nullptr ? &trace : nullptr;
      const int64_t begin_ns = NowNs();
      core::DisambiguationProblem problem =
          FrontEnd(tokenizer, *stack.tagger, docs[doc].text, &pending,
                   traced != nullptr ? &trace.front : nullptr);
      if (traced != nullptr) {
        trace.id = id;
        trace.issuer = static_cast<uint32_t>(c + 1);
        trace.due_ns = begin_ns;
        table->Register(&pending.tokens, &trace.core);
        trace.submit_ns = NowNs();
      }
      const serve::ServeResult response =
          stack.service->Submit(std::move(problem)).get();
      const int64_t end_ns = NowNs();
      if (traced != nullptr) table->Unregister(&pending.tokens);
      Settle(docs[doc], pending, gate.slot[doc], gate, response,
             {end_ns, 1e-9 * static_cast<double>(end_ns - begin_ns)}, &tally,
             traced);
      if (traced != nullptr) tally.traces.push_back(trace);
      const size_t done = response.status.ok()
                              ? completed.fetch_add(1) + 1
                              : completed.load();
      const int64_t elapsed_ns = end_ns - start_ns;
      if ((elapsed_ns >= min_ns && done >= kMinRequests) ||
          elapsed_ns >= max_ns) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& thread : threads) thread.join();

  Window window;
  window.start_ns = start_ns;
  window.seconds = 1e-9 * static_cast<double>(NowNs() - start_ns);
  for (Tally& tally : tallies) window.tally.Merge(std::move(tally));
  return window;
}

// ---------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct PassResult {
  Window window;
  SetupTimes setup;
  double rss_mb = 0.0;
  /// Share of the machine's CPU time stolen by the hypervisor during the
  /// window: how much of the run's noise came from outside the program.
  double steal_share = 0.0;
};

double Ms(int64_t ns) { return 1e-6 * static_cast<double>(ns); }

std::vector<Metric> EndToEnd(const PassResult& pass, double setup_s,
                             double accuracy) {
  const Tally& t = pass.window.tally;
  const nedbench::WindowSummary summary =
      nedbench::Summarize(t.samples, pass.window.start_ns, pass.window.cpu);
  // An open loop completes what arrives unless the service falls behind;
  // its rate over the whole window has no slice-to-slice arrival noise.
  const double throughput =
      pass.window.open_loop
          ? static_cast<double>(t.completed) / pass.window.seconds
          : summary.throughput_per_s;
  return {
      {"throughput_docs_per_s", throughput, "1/s"},
      {"latency_p50_ms", 1e3 * summary.p50_s, "ms"},
      {"latency_p99_ms", 1e3 * summary.p99_s, "ms"},
      {"completed_share",
       static_cast<double>(t.completed) / static_cast<double>(t.attempted),
       "share"},
      {"accuracy_micro", accuracy, "share"},
      {"setup_s", setup_s, "s"},
      {"serve_rss_mb", pass.rss_mb, "MB"},
  };
}

double Accuracy(const Tally& t) {
  return t.gold == 0 ? 0.0
                     : static_cast<double>(t.correct) /
                           static_cast<double>(t.gold);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> PerLayer(const PassResult& traced,
                             const PassResult& untraced) {
  const Tally& t = traced.window.tally;
  double docs = 0, tokenize_us = 0, recognize_us = 0, text_allocs = 0,
         nlp_allocs = 0, mentions = 0, gold = 0, gold_found = 0;
  double core_ms = 0, local_ms = 0, build_ms = 0, solve_ms = 0,
         rescore_ms = 0, candidates = 0, core_mentions = 0, core_allocs = 0,
         core_kb = 0, lookups = 0, evals = 0, lookup_ms = 0, eval_ms = 0,
         filter_ms = 0, offered = 0, kept = 0, iterations = 0, tasks = 0;
  std::vector<double> queue_ms, service_ms, lag_ms;
  for (const RequestTrace& r : t.traces) {
    if (!r.ok || !r.core.recorded) continue;
    docs += 1;
    tokenize_us += 1e-3 * (r.front.tokenized_ns - r.front.start_ns);
    recognize_us += 1e-3 * (r.front.recognized_ns - r.front.tokenized_ns);
    text_allocs += r.front.tokenize_allocs;
    nlp_allocs += r.front.recognize_allocs;
    mentions += r.mentions;
    gold += r.gold;
    gold_found += r.gold_found;
    queue_ms.push_back(1e3 * r.queue_s);
    service_ms.push_back(1e3 * r.service_s);
    lag_ms.push_back(Ms(r.front.start_ns - r.due_ns));
    const core::DisambiguationStats& s = r.core.stats;
    core_ms += Ms(r.core.end_ns - r.core.start_ns);
    local_ms += 1e3 * s.local_seconds;
    build_ms += 1e3 * s.graph_build_seconds;
    solve_ms += 1e3 * s.graph_solve_seconds;
    rescore_ms += 1e3 * (s.total_seconds - s.local_seconds -
                         s.graph_build_seconds - s.graph_solve_seconds);
    candidates += r.core.candidates;
    core_mentions += r.core.mentions;
    core_allocs += r.core.allocations;
    core_kb += r.core.allocated_bytes / 1024.0;
    const nedbench::RelatednessCounters& rel = r.core.relatedness;
    lookups += rel.lookups;
    evals += rel.evals;
    lookup_ms += Ms(rel.lookup_ns);
    eval_ms += Ms(rel.eval_ns);
    filter_ms += Ms(rel.filter_ns);
    offered += rel.pairs_offered;
    kept += rel.pairs_kept;
    iterations += s.graph_iterations;
    tasks += s.parallel_tasks;
  }
  const double n = std::max(docs, 1.0);
  const std::vector<Metric> untraced_e2e = EndToEnd(untraced, 0.0, 0.0);
  const std::vector<Metric> traced_e2e = EndToEnd(traced, 0.0, 0.0);
  auto overhead = [&](size_t index) {
    return Ratio(traced_e2e[index].value, untraced_e2e[index].value) - 1.0;
  };
  return {
      {"text.tokenize_us_per_doc", tokenize_us / n, "us"},
      {"text.allocs_per_doc", text_allocs / n, "count"},
      {"nlp.recognize_us_per_doc", recognize_us / n, "us"},
      {"nlp.mentions_per_doc", mentions / n, "count"},
      {"nlp.gold_span_recall", Ratio(gold_found, gold), "share"},
      {"nlp.allocs_per_doc", nlp_allocs / n, "count"},
      {"serve.queue_wait_ms_p50", nedbench::Percentile(queue_ms, 0.50), "ms"},
      {"serve.queue_wait_ms_p99", nedbench::Percentile(queue_ms, 0.99), "ms"},
      {"serve.service_ms_p50", nedbench::Percentile(service_ms, 0.50), "ms"},
      {"serve.service_ms_p99", nedbench::Percentile(service_ms, 0.99), "ms"},
      {"serve.generator_lag_ms_p99", nedbench::Percentile(lag_ms, 0.99),
       "ms"},
      {"serve.rejected", static_cast<double>(t.shed), "count"},
      {"core.disambiguate_ms_per_doc", core_ms / n, "ms"},
      {"core.local_ms_per_doc", local_ms / n, "ms"},
      {"core.graph_build_ms_per_doc", build_ms / n, "ms"},
      {"core.rescore_ms_per_doc", rescore_ms / n, "ms"},
      {"core.candidates_per_mention", Ratio(candidates, core_mentions),
       "count"},
      {"core.allocs_per_doc", core_allocs / n, "count"},
      {"core.alloc_kb_per_doc", core_kb / n, "KB"},
      {"relatedness.lookups_per_doc", lookups / n, "count"},
      {"relatedness.evals_per_doc", evals / n, "count"},
      {"relatedness.cache_hit_ratio", Ratio(lookups - evals, lookups),
       "share"},
      {"relatedness.lookup_ms_per_doc", lookup_ms / n, "ms"},
      {"relatedness.eval_ms_per_doc", eval_ms / n, "ms"},
      {"relatedness.eval_us_per_call", Ratio(1e3 * eval_ms, evals), "us"},
      {"hashing.filter_ms_per_doc", filter_ms / n, "ms"},
      // Without a pair filter every offered pair is kept.
      {"hashing.pairs_kept_ratio", offered == 0 ? 1.0 : kept / offered,
       "share"},
      {"graph.solve_ms_per_doc", solve_ms / n, "ms"},
      {"graph.iterations_per_doc", iterations / n, "count"},
      {"task.tasks_per_doc", tasks / n, "count"},
      {"kb.load_ms", 1e3 * traced.setup.load_s, "ms"},
      {"kb.snapshot_create_ms", 1e3 * traced.setup.create_s, "ms"},
      {"kb.warmup_ms", 1e3 * traced.setup.warmup_s, "ms"},
      // Traced over untraced, minus one, on the same inputs.
      {"trace.overhead_throughput", overhead(0), "share"},
      {"trace.overhead_latency_p50", overhead(1), "share"},
      {"trace.overhead_latency_p99", overhead(2), "share"},
  };
}

/// Writes the traced run's spans as Chrome trace-event JSON: front end,
/// tokenize and NER on the issuing thread, disambiguate on the worker,
/// submit-to-complete and queue wait as async spans keyed by request id.
void WriteSpans(const std::string& path, const Tally& tally,
                int64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "nedbench: cannot write %s\n", path.c_str());
    return;
  }
  auto us = [origin_ns](int64_t ns) { return 1e-3 * (ns - origin_ns); };
  auto span = [&](const char* name, uint32_t tid, int64_t begin, int64_t end,
                  uint64_t id) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu}}",
                 name, tid, us(begin), 1e-3 * (end - begin),
                 static_cast<unsigned long long>(id));
  };
  auto async = [&](const char* name, const char* phase, int64_t at,
                   uint64_t id) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"serve\",\"ph\":\"%s\","
                 "\"pid\":1,\"id\":%llu,\"ts\":%.3f}",
                 name, phase, static_cast<unsigned long long>(id), us(at));
  };
  std::fprintf(out, "{\"traceEvents\":[\n{\"name\":\"process_name\","
                    "\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"nedbench\"}}");
  for (const RequestTrace& r : tally.traces) {
    if (r.front.start_ns == 0) continue;
    span("frontend", r.issuer, r.front.start_ns, r.front.end_ns, r.id);
    span("tokenize", r.issuer, r.front.start_ns, r.front.tokenized_ns, r.id);
    span("ner", r.issuer, r.front.tokenized_ns, r.front.recognized_ns, r.id);
    const int64_t queued_ns =
        r.submit_ns + static_cast<int64_t>(1e9 * r.queue_s);
    const int64_t done_ns =
        r.submit_ns + static_cast<int64_t>(1e9 * r.total_s);
    async("request", "b", r.submit_ns, r.id);
    async("queue", "b", r.submit_ns, r.id);
    async("queue", "e", queued_ns, r.id);
    async("request", "e", done_ns, r.id);
    if (r.core.recorded) {
      const nedbench::RelatednessCounters& rel = r.core.relatedness;
      std::fprintf(
          out,
          ",\n{\"name\":\"disambiguate\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
          "\"allocs\":%llu,\"lookups\":%llu,\"evals\":%llu,"
          "\"lookup_us\":%.3f,\"eval_us\":%.3f,\"filter_us\":%.3f}}",
          1000 + r.core.worker, us(r.core.start_ns),
          1e-3 * (r.core.end_ns - r.core.start_ns),
          static_cast<unsigned long long>(r.id),
          static_cast<unsigned long long>(r.core.allocations),
          static_cast<unsigned long long>(rel.lookups),
          static_cast<unsigned long long>(rel.evals), 1e-3 * rel.lookup_ns,
          1e-3 * rel.eval_ns, 1e-3 * rel.filter_ns);
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

// ---------------------------------------------------------------------
// Driver

void Usage() {
  std::fprintf(stderr,
               "usage: nedbench --workload news_stream|heavy_kore "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& workload : kWorkloads) {
        if (std::strcmp(workload.name, value) == 0) args->workload = &workload;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && args->seconds > 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Inputs {
  std::vector<InputDoc> warmup;
  std::vector<InputDoc> docs;
  /// Open loop only: due times in seconds, one per document.
  std::vector<double> schedule;
};

/// The untraced snapshot options: the defaults (Milne-Witten behind the
/// per-snapshot cache, default Aida), with the workload's measure if it
/// needs another.
kb::SnapshotOptions UntracedOptions(const Workload& workload) {
  kb::SnapshotOptions options;
  if (workload.measure != Measure::kMilneWitten) {
    options.relatedness_factory = BaseMeasure(workload.measure);
  }
  return options;
}

/// One set-up plus one timed window, untraced or traced.
util::Status RunPass(const Args& args, const std::string& kb_path,
                     const Inputs& inputs, const Gate& gate, bool traced,
                     nedbench::CoreRecordTable* table, PassResult* pass) {
  const Workload& workload = *args.workload;
  const kb::SnapshotOptions options =
      traced ? nedbench::TracedSnapshotOptions(BaseMeasure(workload.measure),
                                               table)
             : UntracedOptions(workload);
  const text::Tokenizer tokenizer;
  const double rss_before = ResidentMb();
  Stack stack;
  util::Status status =
      Setup(kb_path, options, inputs.warmup, tokenizer, &stack, &pass->setup);
  if (!status.ok()) return status;
  nedbench::CoreRecordTable* recording = traced ? table : nullptr;
  std::vector<nedbench::CpuPoint> cpu;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      cpu.push_back(ReadCpuPoint());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    cpu.push_back(ReadCpuPoint());
  });
  pass->window =
      workload.loop == Loop::kOpen
          ? RunOpenLoop(stack, tokenizer, inputs.docs, inputs.schedule, gate,
                        recording)
          : RunClosedLoop(stack, tokenizer, inputs.docs, args.seconds, gate,
                          recording);
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();
  pass->rss_mb = ResidentMb() - rss_before;
  pass->steal_share =
      nedbench::StealShare(cpu, cpu.front().t_ns, cpu.back().t_ns);
  pass->window.cpu = std::move(cpu);
  return util::Status::Ok();
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("# %-32s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted,
              tally.shed + tally.expired + tally.errored);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Fail(const util::Status& status) {
  std::fprintf(stderr, "nedbench: %s\n", status.ToString().c_str());
  return 1;
}

/// Deletes the run's KB file however main returns.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const Workload& workload = *args.workload;
  std::printf("# machine: nproc=%zu cpu=\"%s\" build=%s compiler=\"%s\"\n",
              Nproc(), CpuModel().c_str(), NEDBENCH_BUILD_TYPE,
              NEDBENCH_COMPILER);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // Inputs: one fixed world and a fixed corpus per workload; the order of
  // the corpus and the arrivals come from the seed. The warm-up set has a
  // fixed seed of its own, so it never overlaps the timed documents and
  // every run warms up on the same work.
  util::Stopwatch input_watch;
  synth::World world = synth::WorldGenerator(synth::ConllPreset().world)
                           .Generate();
  const std::string kb_path = args.work_dir + "/nedbench-" +
                              std::to_string(getpid()) + ".fkb";
  const RemoveOnExit remove_kb{kb_path};
  util::Status saved =
      kb::flat::SaveFlatSnapshot(*world.knowledge_base, kb_path);
  if (!saved.ok()) return Fail(saved);
  Inputs inputs;
  inputs.warmup =
      GenerateDocs(world, workload, workload.warmup_docs, kWarmupSeed);
  const size_t num_docs = std::max<size_t>(
      kMinRequests, static_cast<size_t>(
                        std::ceil(workload.docs_per_second * args.seconds)));
  inputs.docs =
      GenerateDocs(world, workload, num_docs, workload.corpus_seed);
  world = synth::World();
  nedbench::SplitMix64 rng(Mix(args.seed, 4));
  for (size_t i = num_docs - 1; i > 0; --i) {
    std::swap(inputs.docs[i], inputs.docs[rng.Next() % (i + 1)]);
  }
  if (workload.loop == Loop::kOpen) {
    inputs.schedule = nedbench::PoissonSchedule(
        workload.docs_per_second, num_docs, Mix(args.seed, 2));
  }

  // Every sampled document is certain to be served: the open loop serves
  // all, a closed loop at least the first kMinRequests.
  Gate gate;
  const size_t eligible = workload.loop == Loop::kOpen
                              ? num_docs
                              : std::min(num_docs, kMinRequests);
  util::Status gated =
      BuildGate(kb_path, workload, inputs.docs, eligible, args.seed, &gate);
  if (!gated.ok()) return Fail(gated);
  std::printf("# inputs: %zu documents, %zu warm-up, %zu gate samples, "
              "prepared in %.2f s\n",
              inputs.docs.size(), inputs.warmup.size(), gate.gold.size(),
              input_watch.ElapsedSeconds());

  PassResult untraced;
  util::Status status =
      RunPass(args, kb_path, inputs, gate, false, nullptr, &untraced);
  if (!status.ok()) return Fail(status);

  std::vector<Metric> metrics;
  nedbench::CoreRecordTable table;
  PassResult traced;
  if (args.trace) {
    status = RunPass(args, kb_path, inputs, gate, true, &table, &traced);
    if (!status.ok()) return Fail(status);
    metrics = PerLayer(traced, untraced);
    const std::string spans_path = args.work_dir + "/nedbench-trace-" +
                                   workload.name + "-seed" +
                                   std::to_string(args.seed) + ".json";
    WriteSpans(spans_path, traced.window.tally, traced.window.start_ns);
    std::printf("# spans: %s\n", spans_path.c_str());
  } else {
    // More set-ups after the window, for a steady set-up median.
    std::vector<double> setups = {untraced.setup.total_s()};
    const text::Tokenizer tokenizer;
    const kb::SnapshotOptions options = UntracedOptions(workload);
    for (int i = 1; i < kSetupRepeats; ++i) {
      Stack stack;
      SetupTimes times;
      status =
          Setup(kb_path, options, inputs.warmup, tokenizer, &stack, &times);
      if (!status.ok()) return Fail(status);
      setups.push_back(times.total_s());
    }
    metrics = EndToEnd(untraced, nedbench::Median(setups),
                       Accuracy(untraced.window.tally));
  }

  const PassResult& reported = args.trace ? traced : untraced;
  const Window& window = reported.window;
  const Tally& tally = window.tally;
  const nedbench::WindowSummary summary =
      nedbench::Summarize(tally.samples, window.start_ns, window.cpu);
  std::printf("# window: %.2f s, %zu attempted, %zu completed, %zu shed, "
              "%zu expired, %zu errored, host steal %.4f\n",
              window.seconds, tally.attempted, tally.completed, tally.shed,
              tally.expired, tally.errored, reported.steal_share);
  std::printf("# latency p50 is the median of %zu of %zu slices, p99 of "
              "%zu of %zu slices (the calm ones) with %zu+ samples beyond "
              "each p99\n",
              summary.calm_rate_slices, summary.rate_slices,
              summary.calm_p99_slices, summary.p99_slices,
              nedbench::SamplesBeyond(
                  tally.samples.size() / std::max<size_t>(summary.p99_slices, 1),
                  0.99));
  std::printf("# accuracy_micro=%.6f nlp.gold_span_recall=%.6f\n",
              Accuracy(tally),
              Ratio(static_cast<double>(tally.gold_found),
                    static_cast<double>(tally.gold)));
  std::printf("# gate: %zu responses compared with the serial uncached "
              "gold, %zu mismatches\n",
              tally.compared, tally.mismatches);
  const bool correct = tally.mismatches == 0 && tally.compared > 0 &&
                       untraced.window.tally.mismatches == 0 &&
                       tally.completed > 0;
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}
