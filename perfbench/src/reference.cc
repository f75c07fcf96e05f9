#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "query/xpath.h"
#include "xml/shakespeare.h"
#include "workloads.h"

namespace perfbench {

using cdbs::xml::Document;
using cdbs::xml::Node;

namespace {

bool Named(const Node* n, const char* name) {
  return n->is_element() && n->name() == name;
}

bool HasChild(const Node* n, const char* name) {
  for (const Node* c : n->children()) {
    if (Named(c, name)) return true;
  }
  return false;
}

bool HasDescendant(const Node* n, const char* name) {
  for (const Node* c : n->children()) {
    if (Named(c, name) || HasDescendant(c, name)) return true;
  }
  return false;
}

/// The `k`-th (1-based) child named `name`, or nullptr.
const Node* NthChild(const Node* n, const char* name, int k) {
  for (const Node* c : n->children()) {
    if (Named(c, name) && --k == 0) return c;
  }
  return nullptr;
}

/// 1-based rank of `n` among its parent's children named like it.
int SameNameRank(const Node* n) {
  if (n->parent() == nullptr) return 1;
  int rank = 0;
  for (const Node* c : n->parent()->children()) {
    if (Named(c, n->name().c_str())) ++rank;
    if (c == n) return rank;
  }
  return rank;
}

uint64_t CountDescendants(const Node* n, const char* name) {
  uint64_t count = 0;
  for (const Node* c : n->children()) {
    if (Named(c, name)) ++count;
    count += CountDescendants(c, name);
  }
  return count;
}

/// Pre-order walk that records, for each element, its pre-order index and
/// the index of the last node of its subtree.
struct PreorderNode {
  const Node* node;
  size_t end;  // last pre-order index inside the subtree
};

size_t Preorder(const Node* n, std::vector<PreorderNode>* out) {
  const size_t self = out->size();
  out->push_back({n, self});
  size_t last = self;
  for (const Node* c : n->children()) last = Preorder(c, out);
  (*out)[self].end = last;
  return last;
}

}  // namespace

QueryCounts WalkQueryCounts(const Document& play) {
  QueryCounts counts{};
  const Node* root = play.root();
  if (root == nullptr || !Named(root, "play")) return counts;

  // Q1 /play/act[4]
  counts[0] = NthChild(root, "act", 4) != nullptr ? 1 : 0;

  // Q2 /play//personae[./title]/pgroup[.//grpdescr]/persona
  std::vector<const Node*> stack(root->children().rbegin(),
                                 root->children().rend());
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (Named(n, "personae") && HasChild(n, "title")) {
      for (const Node* g : n->children()) {
        if (!Named(g, "pgroup") || !HasDescendant(g, "grpdescr")) continue;
        for (const Node* p : g->children()) {
          if (Named(p, "persona")) ++counts[1];
        }
      }
    }
    for (auto it = n->children().rbegin(); it != n->children().rend(); ++it) {
      stack.push_back(*it);
    }
  }

  // Q3 /play/personae/persona[12]/preceding-sibling::*
  for (const Node* personae : root->children()) {
    if (!Named(personae, "personae")) continue;
    const Node* twelfth = NthChild(personae, "persona", 12);
    if (twelfth == nullptr) continue;
    for (const Node* s : personae->children()) {
      if (s == twelfth) break;
      if (s->is_element()) ++counts[2];
    }
  }

  // Q4 //act[2]/following::speaker — the union of the following sets is
  // everything after the earliest-ending context's subtree.
  std::vector<PreorderNode> order;
  Preorder(root, &order);
  size_t first_end = std::numeric_limits<size_t>::max();
  for (const PreorderNode& p : order) {
    if (Named(p.node, "act") && SameNameRank(p.node) == 2) {
      first_end = std::min(first_end, p.end);
    }
  }
  for (size_t i = 0; i < order.size(); ++i) {
    if (first_end != std::numeric_limits<size_t>::max() && i > first_end &&
        Named(order[i].node, "speaker")) {
      ++counts[3];
    }
  }

  // Q5 //act/scene/speech
  for (const PreorderNode& p : order) {
    if (!Named(p.node, "act")) continue;
    for (const Node* scene : p.node->children()) {
      if (!Named(scene, "scene")) continue;
      for (const Node* s : scene->children()) {
        if (Named(s, "speech")) ++counts[4];
      }
    }
  }

  // Q6 /play/*//line
  for (const Node* c : root->children()) {
    if (c->is_element()) counts[5] += CountDescendants(c, "line");
  }
  return counts;
}

QueryCounts WalkQueryCounts(const std::vector<Document>& plays) {
  QueryCounts total{};
  for (const Document& play : plays) {
    const QueryCounts c = WalkQueryCounts(play);
    for (size_t q = 0; q < total.size(); ++q) total[q] += c[q];
  }
  return total;
}

const QueryCounts& Table3Counts() {
  static const QueryCounts counts = {37, 180, 444, 17133, 29296, 113469};
  return counts;
}

namespace {

void PrintCounts(const std::string& label, const QueryCounts& c) {
  std::printf("%-24s", label.c_str());
  for (const uint64_t v : c) {
    std::printf(" %9llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n");
}

}  // namespace

void PrintReference() {
  const auto& queries = cdbs::query::Table3Queries();
  std::printf("Reference answers (plain tree walks, no labels)\n");
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("  Q%zu  %s\n", q + 1, queries[q].c_str());
  }
  std::printf("\n%-24s %9s %9s %9s %9s %9s %9s\n", "document", "Q1", "Q2",
              "Q3", "Q4", "Q5", "Q6");
  const std::vector<Document> plays = cdbs::xml::GenerateShakespeareDataset();
  for (size_t i = 0; i < plays.size(); ++i) {
    PrintCounts("d5 play " + std::to_string(i) + " (" +
                    std::to_string(plays[i].node_count()) + ")",
                WalkQueryCounts(plays[i]));
  }
  PrintCounts("d5 total", WalkQueryCounts(plays));
  PrintCounts("Table 3 (published)", Table3Counts());
  PrintCounts("hamlet (" + std::to_string(plays[0].node_count()) + ")",
              WalkQueryCounts(plays[0]));
  const Document big = GenerateUniformPlay();
  PrintCounts("d5-sized play (" + std::to_string(big.node_count()) + ")",
              WalkQueryCounts(big));
}

std::vector<uint32_t> RanksOfTag(const Document& doc, const char* tag) {
  std::vector<uint32_t> ranks;
  uint32_t rank = 0;
  doc.Visit([&](Node* n) {
    if (Named(n, tag)) ranks.push_back(rank);
    ++rank;
  });
  return ranks;
}

OrderedListModel::OrderedListModel(const std::vector<uint32_t>& ids) {
  const uint32_t max_id =
      ids.empty() ? 0 : *std::max_element(ids.begin(), ids.end());
  position_.resize(static_cast<size_t>(max_id) + 1, order_.end());
  for (const uint32_t id : ids) {
    position_[id] = order_.insert(order_.end(), id);
  }
}

void OrderedListModel::InsertAfter(uint32_t target, uint64_t new_id) {
  // Targets come from the list the model was built from.
  if (target >= position_.size() || position_[target] == order_.end()) {
    std::abort();
  }
  order_.insert(std::next(position_[target]), new_id);
}

std::vector<uint64_t> OrderedListModel::InsertedInOrder(
    uint64_t first_new) const {
  std::vector<uint64_t> out;
  for (const uint64_t id : order_) {
    if (id >= first_new) out.push_back(id);
  }
  return out;
}

}  // namespace perfbench
