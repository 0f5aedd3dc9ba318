#include "txn/method_registry.h"

namespace semcc {

MethodRegistry::MethodRegistry() {
  MutexLock guard(mu_);
  tables_.push_back(std::make_unique<Table>());
  current_.store(tables_.back().get(), std::memory_order_release);
}

Status MethodRegistry::Register(MethodDef def) {
  if (def.name.empty()) return Status::InvalidArgument("empty method name");
  if (!def.body) return Status::InvalidArgument("method has no body");
  if (!def.read_only && !def.inverse) {
    return Status::InvalidArgument(
        "update method " + def.name +
        " needs a semantic inverse (open nested transactions compensate "
        "committed subtransactions; physical undo would wipe out commuting "
        "updates of other transactions)");
  }
  MutexLock guard(mu_);
  auto next =
      std::make_unique<Table>(*current_.load(std::memory_order_acquire));
  auto owned = std::make_unique<MethodDef>(std::move(def));
  if (!(*next)[owned->type].emplace(owned->name, owned.get()).second) {
    return Status::AlreadyExists("method already registered: " + owned->name);
  }
  defs_.push_back(std::move(owned));
  current_.store(next.get(), std::memory_order_release);
  tables_.push_back(std::move(next));
  return Status::OK();
}

Result<const MethodDef*> MethodRegistry::Find(TypeId type,
                                              const std::string& name) const {
  const Table* table = current_.load(std::memory_order_acquire);
  auto tit = table->find(type);
  if (tit != table->end()) {
    auto mit = tit->second.find(name);
    if (mit != tit->second.end()) return mit->second;
  }
  return Status::NotFound("no method " + name + " on type " +
                          std::to_string(type));
}

}  // namespace semcc
