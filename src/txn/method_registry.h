// Registry of (user-defined) methods on encapsulated object types.
//
// A method has a body (which may invoke further methods on other objects or
// even the same object — paper footnote 3) and, for update methods, a
// semantic inverse used to compensate the committed subtransaction when an
// ancestor aborts (paper §3: "committed subtransactions need to be
// compensated by means of appropriate 'inverse' operations").
#ifndef SEMCC_TXN_METHOD_REGISTRY_H_
#define SEMCC_TXN_METHOD_REGISTRY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "object/oid.h"
#include "object/value.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/result.h"

namespace semcc {

class TxnCtx;

/// \brief One registered method.
struct MethodDef {
  TypeId type = kInvalidTypeId;
  std::string name;
  /// Read-only methods need no inverse and map to shared locks under the
  /// conventional baselines.
  bool read_only = false;
  /// The implementation. `self` is the receiver object.
  std::function<Result<Value>(TxnCtx&, Oid self, const Args&)> body;
  /// Semantic compensation, executed as a new subtransaction of the aborting
  /// transaction. Receives the original arguments and the original result.
  /// Mandatory for update methods (enforced at registration).
  std::function<Status(TxnCtx&, Oid self, const Args&, const Value& result)>
      inverse;
};

/// \brief Thread-safe method lookup table, keyed by (type, name).
///
/// Find runs once per Invoke and takes no lock: it reads an immutable table
/// through an atomic pointer. Register copies the table under the writers'
/// mutex, adds the method and publishes the copy with release; old tables
/// stay alive until the registry dies, so a reader may keep using the one it
/// loaded. Each MethodDef is owned once, by `defs_`; tables point into it.
class MethodRegistry {
 public:
  MethodRegistry();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(MethodRegistry);

  Status Register(MethodDef def) SEMCC_EXCLUDES(mu_);
  Result<const MethodDef*> Find(TypeId type, const std::string& name) const;

 private:
  using Table =
      std::unordered_map<TypeId,
                         std::unordered_map<std::string, const MethodDef*>>;

  Mutex mu_;
  std::vector<std::unique_ptr<MethodDef>> defs_ SEMCC_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Table>> tables_ SEMCC_GUARDED_BY(mu_);
  std::atomic<const Table*> current_{nullptr};
};

}  // namespace semcc

#endif  // SEMCC_TXN_METHOD_REGISTRY_H_
