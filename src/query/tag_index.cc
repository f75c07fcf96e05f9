#include "query/tag_index.h"

#include <algorithm>

namespace cdbs::query {

namespace {

const TagList& EmptyTagList() {
  static const TagList* const kEmpty = new TagList();
  return *kEmpty;
}

}  // namespace

LabeledDocument::LabeledDocument(const xml::Document& doc,
                                 const labeling::LabelingScheme& scheme) {
  labeling_ = scheme.Label(doc);
  pool_ = TagPool::Empty();
  // The labeling assigned ids in document order; recover the same order to
  // attach tags. Ids ascend in document order here, so the tag lists are
  // built by pure appends (runs sealed at kRunTarget).
  const std::vector<xml::Node*> nodes = doc.NodesInDocumentOrder();
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const xml::Node* node = nodes[id];
    if (!node->is_element()) {
      tags_.PushBack(TagId{0});
      continue;
    }
    const TagId tag = TagPool::Intern(&pool_, node->name());
    tags_.PushBack(tag);
    all_elements_.Append(id);
    by_tag_[tag].Append(id);
  }
}

std::unique_ptr<LabeledDocument> LabeledDocument::Fork() const {
  std::unique_ptr<LabeledDocument> copy(new LabeledDocument());
  copy->labeling_ = labeling_->ForkShared();
  copy->pool_ = pool_;          // immutable, shared by pointer
  copy->tags_ = tags_;          // COW chunks
  copy->all_elements_ = all_elements_;  // COW runs
  copy->by_tag_ = by_tag_;      // map of COW spines: O(#tags + #groups)
  return copy;
}

const TagList& LabeledDocument::WithTag(const std::string& name) const {
  if (name == "*") return all_elements_;
  const TagId tag = pool_->Find(name);
  if (tag == TagPool::kNoTag) return EmptyTagList();
  const auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? EmptyTagList() : it->second;
}

void LabeledDocument::NoteInsertedNode(NodeId id, const std::string& tag) {
  const TagId tag_id = TagPool::Intern(&pool_, tag);
  if (tags_.size() < static_cast<size_t>(id) + 1) {
    tags_.Resize(static_cast<size_t>(id) + 1);
  }
  tags_.Set(id, tag_id);
  const auto less = [this](NodeId a, NodeId b) {
    return labeling_->CompareOrder(a, b) < 0;
  };
  // Splice into the touched tag run only; all other runs stay shared with
  // any published snapshot. InsertSorted asserts (debug-only) that the
  // splice lands between its neighbors, pinning the invariant the COW runs
  // rely on — runs stay CompareOrder-sorted, no full-list re-sort ever
  // runs.
  all_elements_.InsertSorted(id, less);
  by_tag_[tag_id].InsertSorted(id, less);
}

void LabeledDocument::NoteRemovedNodes(const std::vector<NodeId>& ids) {
  if (ids.empty()) return;
  const auto less = [this](NodeId a, NodeId b) {
    return labeling_->CompareOrder(a, b) < 0;
  };
  // Batch by tag so each touched list is rewritten once, positions located
  // by label-order binary search (the lists are CompareOrder-sorted).
  std::unordered_map<TagId, std::vector<NodeId>> by_tag_ids;
  std::vector<NodeId> elements;
  elements.reserve(ids.size());
  for (const NodeId id : ids) {
    const TagId tag = tags_[id];
    if (tag == TagId{0}) continue;  // text nodes are not indexed
    elements.push_back(id);
    by_tag_ids[tag].push_back(id);
  }
  if (elements.empty()) return;
  all_elements_.EraseIds(elements, less);
  for (auto& [tag, tag_ids] : by_tag_ids) {
    const auto it = by_tag_.find(tag);
    if (it != by_tag_.end()) it->second.EraseIds(tag_ids, less);
  }
}

}  // namespace cdbs::query
