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
      args_(std::move(args)) {
  lock_entry_.acquirer = this;
  lock_entry_.owner = this;
  lock_entry_.method_id = method_id_;
}

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
  if (last_child_ == nullptr) {
    first_child_ = child;
  } else {
    last_child_->next_sibling_ = child;
  }
  last_child_ = child;
}

std::vector<SubTxn*> SubTxn::Children() const {
  MutexLock guard(children_mu_);
  std::vector<SubTxn*> out;
  for (SubTxn* c = first_child_; c != nullptr; c = c->next_sibling_) {
    out.push_back(c);
  }
  return out;
}

std::vector<SubTxn*> SubTxn::IncompleteChildren() const {
  MutexLock guard(children_mu_);
  std::vector<SubTxn*> out;
  for (SubTxn* c = first_child_; c != nullptr; c = c->next_sibling_) {
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
                 TypeId root_type)
    : root_(new (NextSlot()) SubTxn(root_id, nullptr, root_object, root_type,
                                    std::move(name), Args{})) {
  ++size_;
}

TxnTree::~TxnTree() {
  size_t left = size_;
  Chunk* c = &first_;
  while (c != nullptr) {
    for (size_t i = 0; i < kChunkNodes && left != 0; ++i, --left) {
      c->at(i)->~SubTxn();
    }
    Chunk* next = c->next;
    if (c != &first_) delete c;
    c = next;
  }
}

void* TxnTree::NextSlot() {
  const size_t in_last = size_ % kChunkNodes;
  if (size_ != 0 && in_last == 0) {
    last_->next = new Chunk;
    last_ = last_->next;
  }
  return last_->slot(in_last);
}

SubTxn* TxnTree::NewNode(SubTxn* parent, Oid object, TypeId type,
                         std::string method, Args args) {
  SEMCC_CHECK(parent != nullptr);
  SubTxn* node = new (NextSlot()) SubTxn(NextId(), parent, object, type,
                                         std::move(method), std::move(args));
  ++size_;
  parent->AddChild(node);
  return node;
}

std::vector<SubTxn*> TxnTree::Nodes() const {
  std::vector<SubTxn*> out;
  out.reserve(size_);
  size_t left = size_;
  for (const Chunk* c = &first_; c != nullptr && left != 0; c = c->next) {
    for (size_t i = 0; i < kChunkNodes && left != 0; ++i, --left) {
      out.push_back(c->at(i));
    }
  }
  return out;
}

}  // namespace semcc
