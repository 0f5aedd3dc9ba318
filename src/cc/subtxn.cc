#include "cc/subtxn.h"

#include <atomic>

#include "util/logging.h"

namespace semcc {

SubTxn::SubTxn(TxnId id, SubTxn* parent, Oid object, TypeId type,
               std::string method, Args args)
    : id_(id),
      priority_(id),
      parent_(parent),
      root_(parent == nullptr ? this : parent->root_),
      depth_(parent == nullptr ? 0 : parent->depth_ + 1),
      object_(object),
      type_(type),
      method_(std::move(method)),
      method_id_(MethodInterner::Global().Intern(method_)),
      args_(std::move(args)) {}

bool SubTxn::IsAncestorOf(const SubTxn* other) const {
  for (const SubTxn* n = other->parent_; n != nullptr; n = n->parent_) {
    if (n == this) return true;
  }
  return false;
}

std::vector<SubTxn*> SubTxn::AncestorChain() const {
  std::vector<SubTxn*> chain;
  for (SubTxn* n = parent_; n != nullptr; n = n->parent_) chain.push_back(n);
  return chain;
}

void SubTxn::AddChild(SubTxn* child) {
  MutexLock guard(children_mu_);
  children_.push_back(child);
}

std::vector<SubTxn*> SubTxn::Children() const {
  MutexLock guard(children_mu_);
  return children_;
}

std::vector<SubTxn*> SubTxn::IncompleteChildren() const {
  MutexLock guard(children_mu_);
  std::vector<SubTxn*> out;
  for (SubTxn* c : children_) {
    if (!c->completed()) out.push_back(c);
  }
  return out;
}

std::string SubTxn::Label() const {
  std::string out = method_;
  if (object_ != kDatabaseOid || !args_.empty()) {
    out += "(@" + std::to_string(object_);
    for (const Value& a : args_) out += ", " + a.ToString();
    out += ")";
  }
  return out;
}

std::string SubTxn::PathString() const {
  if (parent_ == nullptr) return Label();
  return parent_->PathString() + " > " + Label();
}

namespace {
std::atomic<TxnId> g_next_txn_id{1};
}  // namespace

TxnId TxnTree::NextId() { return g_next_txn_id.fetch_add(1); }

TxnTree::TxnTree(TxnId root_id, std::string name, Oid root_object,
                 TypeId root_type) {
  auto root = std::make_unique<SubTxn>(root_id, nullptr, root_object, root_type,
                                       std::move(name), Args{});
  root_ = root.get();
  MutexLock guard(mu_);
  nodes_.push_back(std::move(root));
}

SubTxn* TxnTree::NewNode(SubTxn* parent, Oid object, TypeId type,
                         std::string method, Args args) {
  SEMCC_CHECK(parent != nullptr);
  auto node = std::make_unique<SubTxn>(NextId(), parent, object, type,
                                       std::move(method), std::move(args));
  SubTxn* raw = node.get();
  {
    MutexLock guard(mu_);
    nodes_.push_back(std::move(node));
  }
  parent->AddChild(raw);
  return raw;
}

std::vector<SubTxn*> TxnTree::Nodes() const {
  MutexLock guard(mu_);
  std::vector<SubTxn*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
}

}  // namespace semcc
