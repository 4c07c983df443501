#include "kb/dictionary.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace aida::kb {

namespace {

// Steady-state case fold for Lookup. The old spelling —
// TableLookup(view_.folded, util::ToUpper(mention_text)) — built a fresh
// std::string per folded lookup: one heap allocation on every candidate
// probe for every mention longer than 3 characters, found by the
// alloc-probe audit and pinned by a warm-lookup allocation assertion in
// tests/alloc_probe_test.cc. Mentions up to kFoldBufferSize now fold
// into a stack buffer; the fold must match util::ToUpper byte-for-byte
// because AddAnchor built the folded table with it.
constexpr size_t kFoldBufferSize = 256;

void FoldToUpper(std::string_view text, char* buffer) AIDA_NONBLOCKING {
  AIDA_EFFECT_ESCAPE_BEGIN(
      "std::toupper is a ctype table lookup — lock- and allocation-free "
      "but opaque to the effect analysis; kept (rather than an inline "
      "ASCII fold) so lookup-time folding can never diverge from the "
      "util::ToUpper the folded table was built with")
  for (size_t i = 0; i < text.size(); ++i) {
    buffer[i] =
        static_cast<char>(std::toupper(static_cast<unsigned char>(text[i])));
  }
  AIDA_EFFECT_ESCAPE_END
}

}  // namespace

void Dictionary::AddAnchor(std::string_view name, EntityId entity,
                           uint64_t count) {
  AIDA_DCHECK(!finalized_);
  std::string key(name);
  build_exact_[key][entity] += count;
  if (name.size() > 3) {
    build_folded_[util::ToUpper(name)][entity] += count;
  }
}

void Dictionary::FlattenTable(NameMap& build, OwnedTable& owned,
                              TableView& view) {
  std::vector<const NameMap::value_type*> entries;
  entries.reserve(build.size());
  for (const auto& entry : build) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  owned.name_offsets.reserve(entries.size() + 1);
  owned.name_offsets.push_back(0);
  owned.candidate_offsets.reserve(entries.size() + 1);
  owned.candidate_offsets.push_back(0);
  for (const auto* entry : entries) {
    owned.name_pool.append(entry->first);
    owned.name_offsets.push_back(owned.name_pool.size());

    const size_t first = owned.candidates.size();
    uint64_t total = 0;
    for (const auto& [entity, count] : entry->second) {
      NameCandidate candidate;
      candidate.entity = entity;
      candidate.anchor_count = count;
      owned.candidates.push_back(candidate);
      total += count;
    }
    std::sort(owned.candidates.begin() + first, owned.candidates.end(),
              [](const NameCandidate& a, const NameCandidate& b) {
                if (a.anchor_count != b.anchor_count)
                  return a.anchor_count > b.anchor_count;
                return a.entity < b.entity;
              });
    for (size_t i = first; i < owned.candidates.size(); ++i) {
      owned.candidates[i].prior =
          total > 0 ? static_cast<double>(owned.candidates[i].anchor_count) /
                          static_cast<double>(total)
                    : 0.0;
    }
    owned.candidate_offsets.push_back(owned.candidates.size());
  }

  const size_t name_count = entries.size();
  owned.slots = flat::BuildHashSlots(name_count, [&](uint64_t i) {
    const uint64_t begin = owned.name_offsets[i];
    return std::string_view(owned.name_pool.data() + begin,
                            owned.name_offsets[i + 1] - begin);
  });

  view.name_offsets = owned.name_offsets.data();
  view.name_pool = owned.name_pool.data();
  view.candidate_offsets = owned.candidate_offsets.data();
  view.candidates = owned.candidates.data();
  view.hash = {owned.slots.data(), owned.slots.size()};
  view.name_count = name_count;

  NameMap().swap(build);
}

void Dictionary::Finalize() {
  AIDA_CHECK(!finalized_, "Dictionary finalized twice");
  FlattenTable(build_exact_, owned_exact_, view_.exact);
  FlattenTable(build_folded_, owned_folded_, view_.folded);
  finalized_ = true;
}

std::unique_ptr<Dictionary> Dictionary::FromFlat(const FlatView& view) {
  auto dictionary = std::unique_ptr<Dictionary>(new Dictionary());
  dictionary->view_ = view;
  dictionary->finalized_ = true;
  return dictionary;
}

const Dictionary::FlatView& Dictionary::flat_view() const {
  AIDA_DCHECK(finalized_);
  return view_;
}

std::span<const NameCandidate> Dictionary::TableLookup(
    const TableView& table, std::string_view name) const AIDA_NONBLOCKING {
  const uint64_t index = table.hash.Find(
      name, [&](uint64_t i) { return TableName(table, i); });
  if (index == flat::kHashNotFound) return {};
  const uint64_t begin = table.candidate_offsets[index];
  return {table.candidates + begin,
          static_cast<size_t>(table.candidate_offsets[index + 1] - begin)};
}

std::span<const NameCandidate> Dictionary::Lookup(
    std::string_view mention_text) const AIDA_NONBLOCKING {
  AIDA_DCHECK(finalized_);
  if (mention_text.size() <= 3) {
    return TableLookup(view_.exact, mention_text);
  }
  if (mention_text.size() <= kFoldBufferSize) {
    char buffer[kFoldBufferSize];
    FoldToUpper(mention_text, buffer);
    return TableLookup(view_.folded,
                       std::string_view(buffer, mention_text.size()));
  }
  // Mentions longer than the fold buffer are pathological (no real
  // surface form is 256+ bytes) but must stay correct, not crash.
  AIDA_EFFECT_ESCAPE_BEGIN(
      "cold branch: heap case-fold for mentions longer than the stack "
      "buffer; unreachable on real text, kept for correctness")
  return TableLookup(view_.folded, util::ToUpper(mention_text));
  AIDA_EFFECT_ESCAPE_END
}

size_t Dictionary::NameCount() const {
  return finalized_ ? static_cast<size_t>(view_.exact.name_count)
                    : build_exact_.size();
}

double Dictionary::MeanAmbiguity() const {
  AIDA_DCHECK(finalized_);
  if (view_.exact.name_count == 0) return 0.0;
  return static_cast<double>(
             view_.exact.candidate_offsets[view_.exact.name_count]) /
         static_cast<double>(view_.exact.name_count);
}

std::vector<std::string> Dictionary::AllNames() const {
  AIDA_DCHECK(finalized_);
  std::vector<std::string> names;
  names.reserve(view_.exact.name_count);
  for (uint64_t i = 0; i < view_.exact.name_count; ++i) {
    names.emplace_back(TableName(view_.exact, i));
  }
  return names;
}

}  // namespace aida::kb
