// Seeded differential test of the label-driven evaluator: random queries
// over the whole XPath subset (child, descendant and `*` steps; positional
// and existence predicates; preceding-sibling::, following::, parent:: and
// ancestor::) are answered by EvaluateQuery for every registered labeling
// scheme and by a reference walk over the xml::Document that never looks at
// a label. The answers must agree exactly, in order.
//
// The documents draw their tags from four names, so the same name nests
// often: nested contexts, child steps whose contexts nest, and `//name[n]`
// candidates under many parents at many depths all occur. Each document is
// queried as labeled and again after random inserts and deletes, whose
// fresh ids are not in document order.

#include <cctype>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/xml_db.h"
#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/xpath.h"
#include "util/random.h"
#include "xml/tree.h"

namespace cdbs::query {
namespace {

constexpr const char* kNames[] = {"a", "b", "c", "d", "*"};
constexpr int kSeeds = 3;
constexpr int kQueriesPerPhase = 60;
constexpr int kUpdates = 40;

// A random tree of about `budget` elements with text nodes mixed in (they
// take node ids too). Deterministic in `seed`.
void BuildRandomTree(uint64_t seed, xml::Document* doc) {
  util::Random rng(seed);
  int budget = 150;
  std::vector<std::pair<xml::Node*, int>> open = {{doc->CreateRoot("a"), 1}};
  while (!open.empty()) {
    const auto [node, depth] = open.back();
    open.pop_back();
    const uint64_t children =
        depth == 1 ? 3 + rng.Uniform(3) : (depth >= 7 ? 0 : rng.Uniform(5));
    std::vector<xml::Node*> made;
    for (uint64_t i = 0; i < children && budget > 0; ++i) {
      if (rng.Bernoulli(0.15)) {
        doc->AppendChild(node, doc->CreateText("t"));
      }
      xml::Node* child = doc->CreateElement(kNames[rng.Uniform(4)]);
      doc->AppendChild(node, child);
      made.push_back(child);
      --budget;
    }
    for (auto it = made.rbegin(); it != made.rend(); ++it) {
      open.push_back({*it, depth + 1});
    }
  }
}

std::string RandomRelativePath(util::Random* rng, int depth);

// Optional `[n]` and existence predicates for a step.
std::string RandomPredicates(util::Random* rng, bool positional, int depth) {
  std::string out;
  if (positional && rng->Bernoulli(0.35)) {
    out += "[" + std::to_string(1 + rng->Uniform(3)) + "]";
  }
  if (depth < 2 && rng->Bernoulli(0.25)) {
    out += "[" + RandomRelativePath(rng, depth + 1) + "]";
  }
  return out;
}

std::string RandomRelativePath(util::Random* rng, int depth) {
  std::string out = ".";
  const uint64_t steps = 1 + rng->Uniform(2);
  for (uint64_t i = 0; i < steps; ++i) {
    out += rng->Bernoulli(0.5) ? "/" : "//";
    out += kNames[rng->Uniform(5)];
    out += RandomPredicates(rng, /*positional=*/false, depth);
  }
  return out;
}

std::string RandomQuery(util::Random* rng) {
  static constexpr const char* kLaterAxes[] = {
      "/", "//", "/", "//", "/preceding-sibling::", "/following::",
      "/parent::", "/ancestor::"};
  std::string out;
  const uint64_t steps = 1 + rng->Uniform(4);
  for (uint64_t i = 0; i < steps; ++i) {
    std::string axis;
    if (i == 0) {
      axis = rng->Bernoulli(0.8) ? "//" : "/";
    } else {
      axis = kLaterAxes[rng->Uniform(8)];
    }
    out += axis;
    out += kNames[rng->Uniform(5)];
    out += RandomPredicates(rng, /*positional=*/axis == "/" || axis == "//",
                            0);
  }
  return out;
}

// Shapes that must run every strategy of the evaluator whatever the random
// draw: pruned and unpruned descendant steps, child steps over nested
// contexts, one-pass and per-candidate sibling ranks, following:: over
// nested contexts, and the sorted upward and sibling axes.
const char* const kFixedQueries[] = {
    "//a//a",         "//a//b",       "//a/a",         "//a/b",
    "//b[2]",         "//a[1]//c[2]", "//*[2]",        "//a/*[3]",
    "/a/*//b",        "/a//a[./b]",   "//a[.//c/d]/b", "//a/following::b",
    "//b[2]/following::*", "//c/preceding-sibling::*",
    "//d/preceding-sibling::a",   "//d/parent::*", "//b/parent::a",
    "//d/ancestor::a", "//c/ancestor::*", "//a//b/ancestor::a//c",
};

// Label-free reference evaluation over the xml tree, mirroring the
// database's node ids (document-order ranks at open, then the ids the
// database hands out for inserts).
class Reference {
 public:
  explicit Reference(xml::Document doc) : doc_(std::move(doc)) {
    for (xml::Node* n : doc_.NodesInDocumentOrder()) Track(n);
  }

  NodeId IdOf(const xml::Node* n) const { return id_of_.at(n); }
  xml::Node* NodeOf(NodeId id) const { return node_of_[id]; }

  void Insert(NodeId target, bool before, const std::string& tag,
              NodeId new_id) {
    xml::Node* t = node_of_[target];
    xml::Node* parent = t->parent();
    xml::Node* fresh = doc_.CreateElement(tag);
    doc_.InsertChildAt(parent, parent->IndexOfChild(t) + (before ? 0 : 1),
                       fresh);
    ASSERT_EQ(new_id, node_of_.size());
    Track(fresh);
  }

  void Delete(NodeId target) {
    xml::Node* t = node_of_[target];
    doc_.RemoveChild(t->parent(), t);
  }

  // Live non-root elements, in document order.
  std::vector<NodeId> Elements() const {
    std::vector<NodeId> out;
    for (const xml::Node* n : doc_.NodesInDocumentOrder()) {
      if (n->is_element() && n != doc_.root()) out.push_back(IdOf(n));
    }
    return out;
  }

  std::vector<NodeId> Evaluate(const Query& query) {
    order_.clear();
    rank_.clear();
    for (const xml::Node* n : doc_.NodesInDocumentOrder()) {
      if (!n->is_element()) continue;
      rank_[n] = order_.size();
      order_.push_back(n);
    }
    std::vector<const xml::Node*> context;
    for (size_t i = 0; i < query.steps.size(); ++i) {
      const Step& step = query.steps[i];
      std::vector<bool> hit(order_.size(), false);
      if (i == 0) {
        if (step.axis == Axis::kChild) {
          const xml::Node* root = doc_.root();
          if (Matches(step, root) && step.position <= 1 &&
              PredicatesHold(step, root)) {
            hit[0] = true;
          }
        } else if (step.axis == Axis::kDescendant) {
          for (const xml::Node* n : order_) Consider(step, n, 0, &hit);
        }
      } else {
        for (const xml::Node* c : context) ExpandOne(step, c, &hit);
      }
      context.clear();
      for (size_t r = 0; r < hit.size(); ++r) {
        if (hit[r]) context.push_back(order_[r]);
      }
    }
    std::vector<NodeId> out;
    for (const xml::Node* n : context) out.push_back(IdOf(n));
    return out;
  }

 private:
  void Track(xml::Node* n) {
    id_of_[n] = static_cast<NodeId>(node_of_.size());
    node_of_.push_back(n);
  }

  static bool Matches(const Step& step, const xml::Node* n) {
    return n->is_element() && (step.name == "*" || step.name == n->name());
  }

  static std::vector<const xml::Node*> ElementChildren(const xml::Node* n) {
    std::vector<const xml::Node*> out;
    for (const xml::Node* c : n->children()) {
      if (c->is_element()) out.push_back(c);
    }
    return out;
  }

  // 1-based rank among the element siblings that carry n's own tag.
  static size_t SameTagRank(const xml::Node* n) {
    if (n->parent() == nullptr) return 1;
    size_t rank = 0;
    for (const xml::Node* s : ElementChildren(n->parent())) {
      if (s->name() == n->name()) ++rank;
      if (s == n) break;
    }
    return rank;
  }

  static bool IsAncestor(const xml::Node* a, const xml::Node* d) {
    for (const xml::Node* p = d->parent(); p != nullptr; p = p->parent()) {
      if (p == a) return true;
    }
    return false;
  }

  // Marks `n` when it passes the step's positional (`rank` for child steps,
  // the same-tag sibling rank otherwise; 0 = none) and existence tests.
  void Consider(const Step& step, const xml::Node* n, size_t rank,
                std::vector<bool>* hit) {
    if (!Matches(step, n)) return;
    if (step.position != 0) {
      if (rank == 0) rank = SameTagRank(n);
      if (rank != static_cast<size_t>(step.position)) return;
    }
    if (!PredicatesHold(step, n)) return;
    (*hit)[rank_.at(n)] = true;
  }

  void ExpandOne(const Step& step, const xml::Node* c,
                 std::vector<bool>* hit) {
    const size_t cr = rank_.at(c);
    switch (step.axis) {
      case Axis::kChild: {
        size_t rank = 0;
        for (const xml::Node* k : ElementChildren(c)) {
          if (Matches(step, k)) Consider(step, k, ++rank, hit);
        }
        break;
      }
      case Axis::kDescendant:
        for (size_t r = cr + 1; r < order_.size() && IsAncestor(c, order_[r]);
             ++r) {
          Consider(step, order_[r], 0, hit);
        }
        break;
      case Axis::kPrecedingSibling:
        if (c->parent() == nullptr) break;
        for (const xml::Node* s : ElementChildren(c->parent())) {
          if (s == c) break;
          if (Matches(step, s) && PredicatesHold(step, s)) {
            (*hit)[rank_.at(s)] = true;
          }
        }
        break;
      case Axis::kFollowing:
        for (size_t r = cr + 1; r < order_.size(); ++r) {
          const xml::Node* n = order_[r];
          if (IsAncestor(c, n)) continue;
          if (Matches(step, n) && PredicatesHold(step, n)) (*hit)[r] = true;
        }
        break;
      case Axis::kParent: {
        const xml::Node* p = c->parent();
        if (p != nullptr && Matches(step, p) && PredicatesHold(step, p)) {
          (*hit)[rank_.at(p)] = true;
        }
        break;
      }
      case Axis::kAncestor:
        for (const xml::Node* p = c->parent(); p != nullptr; p = p->parent()) {
          if (Matches(step, p) && PredicatesHold(step, p)) {
            (*hit)[rank_.at(p)] = true;
          }
        }
        break;
    }
  }

  bool PredicatesHold(const Step& step, const xml::Node* n) {
    for (const RelativePath& rel : step.predicates) {
      if (!ExistsFrom(n, rel.steps, 0)) return false;
    }
    return true;
  }

  // Relative paths take only child and descendant steps here.
  bool ExistsFrom(const xml::Node* n, const std::vector<Step>& steps,
                  size_t i) {
    if (i == steps.size()) return true;
    const Step& step = steps[i];
    for (size_t r = rank_.at(n) + 1;
         r < order_.size() && IsAncestor(n, order_[r]); ++r) {
      const xml::Node* d = order_[r];
      if (!Matches(step, d)) continue;
      if (step.axis == Axis::kChild && d->parent() != n) continue;
      if (PredicatesHold(step, d) && ExistsFrom(d, steps, i + 1)) return true;
    }
    return false;
  }

  xml::Document doc_;
  std::vector<xml::Node*> node_of_;
  std::unordered_map<const xml::Node*, NodeId> id_of_;
  std::vector<const xml::Node*> order_;  // live elements, document order
  std::unordered_map<const xml::Node*, size_t> rank_;
};

class EvaluatorDifferentialTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  // Runs the fixed queries and `kQueriesPerPhase` random ones; fails
  // fatally after the first few disagreements.
  void CheckQueries(const engine::XmlDb& db, Reference* ref,
                    util::Random* rng, const std::string& where) {
    std::vector<std::string> texts(std::begin(kFixedQueries),
                                   std::end(kFixedQueries));
    for (int i = 0; i < kQueriesPerPhase; ++i) {
      texts.push_back(RandomQuery(rng));
    }
    for (const std::string& text : texts) {
      auto query = ParseQuery(text);
      ASSERT_TRUE(query.ok()) << text << ": " << query.status();
      const std::vector<NodeId> got = EvaluateQuery(*query, db.labeled());
      const std::vector<NodeId> want = ref->Evaluate(*query);
      EXPECT_EQ(got, want) << GetParam() << ", " << where << ": " << text;
      if (got != want && ++mismatches_ >= 5) {
        FAIL() << "stopping after " << mismatches_ << " mismatches";
      }
    }
  }

  int mismatches_ = 0;
};

TEST_P(EvaluatorDifferentialTest, MatchesReferenceWalkBeforeAndAfterUpdates) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    xml::Document db_doc;
    xml::Document ref_doc;
    BuildRandomTree(seed, &db_doc);
    BuildRandomTree(seed, &ref_doc);
    Reference ref(std::move(ref_doc));
    engine::XmlDbOptions options;
    options.scheme_name = GetParam();
    auto db = engine::XmlDb::Open(std::move(db_doc), options);
    ASSERT_TRUE(db.ok()) << db.status();
    util::Random rng(1000 + seed);
    const std::string seed_text = "seed " + std::to_string(seed);
    CheckQueries(**db, &ref, &rng, seed_text + " as labeled");
    if (HasFatalFailure()) return;

    for (int u = 0; u < kUpdates; ++u) {
      const std::vector<NodeId> elements = ref.Elements();
      ASSERT_FALSE(elements.empty());
      const NodeId target = elements[rng.Uniform(elements.size())];
      if (rng.Bernoulli(0.25)) {
        // Delete small subtrees so the document keeps its shape.
        if (ref.NodeOf(target)->child_count() > 3) continue;
        ASSERT_TRUE((*db)->DeleteElement(target).ok());
        ref.Delete(target);
      } else {
        const bool before = rng.Bernoulli(0.5);
        const std::string tag = kNames[rng.Uniform(4)];
        auto id = before ? (*db)->InsertElementBefore(target, tag)
                         : (*db)->InsertElementAfter(target, tag);
        ASSERT_TRUE(id.ok()) << id.status();
        ref.Insert(target, before, tag, *id);
      }
    }
    CheckQueries(**db, &ref, &rng, seed_text + " after updates");
    if (HasFatalFailure()) return;
  }
}

std::vector<std::string> SchemeNames() {
  std::vector<std::string> names;
  for (const auto& scheme : labeling::AllSchemes()) {
    names.push_back(scheme->name());
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EvaluatorDifferentialTest, ::testing::ValuesIn(SchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cdbs::query
