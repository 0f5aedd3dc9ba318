// Randomized order-entry workload driver (the paper's §2.3 transaction mix
// over the §2.1 schema), used by the throughput/contention benchmarks and
// the property tests.
#ifndef SEMCC_APP_ORDERENTRY_WORKLOAD_H_
#define SEMCC_APP_ORDERENTRY_WORKLOAD_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "app/orderentry/order_entry.h"
#include "util/random.h"

namespace semcc {
namespace orderentry {

struct WorkloadOptions {
  LoadSpec load;
  /// Item-selection skew (0 = uniform; 0.99 = strong hot spot).
  double zipf_theta = 0.0;
  /// Transaction mix in percent; any remainder goes to T5 (TotalPayment).
  int pct_t1 = 25;         // ship two orders
  int pct_t2 = 25;         // pay two orders
  int pct_t3 = 15;         // check shipment (bypassing)
  int pct_t4 = 15;         // check payment (bypassing)
  int pct_new_order = 10;  // NewOrder
  /// Sleep between the two top-level actions of T1-T4 (models the paper's
  /// long transactions; 0 = none).
  int64_t think_micros = 0;
  uint64_t seed = 42;
  int max_retries = 16;
  /// Run the read-only transaction types (T3, T4, T5) through
  /// Database::RunReadTransaction. With protocol.mvcc_reads these become
  /// lock-free snapshot reads; without it they degrade to the ordinary
  /// locking path — same workload code either way, which is what makes the
  /// mvcc_reads flag a clean on/off ablation.
  bool snapshot_readers = false;
  /// Make T5 scan the item twice. The second TotalPayment acquires again
  /// the locks the tree already holds, so the workload keeps a same-tree
  /// repeat acquisition in its mix under the locking protocols.
  bool t5_double_scan = false;
  /// Make T5 scan *all* items in one transaction (T5_TotalPaymentScan)
  /// instead of a single zipf-picked item. Under plain locking the scan
  /// read-locks the whole item set and so collides with any in-flight
  /// updater; under mvcc_reads it is lock-free. This is the read-mix
  /// benchmark's lever for exposing the snapshot-read gap.
  bool t5_scan_all = false;
  /// Think time for the reader transactions (T3/T4) only; -1 means "use
  /// think_micros". The read-mix benchmarks set this to 0 so reader
  /// throughput is bounded by lock waiting (or, under mvcc, by nothing)
  /// rather than by sleeping.
  int64_t reader_think_micros = -1;
};

/// \brief Per-worker-thread state (own PRNG streams, so runs are
/// deterministic given (seed, thread index)).
struct WorkerState {
  WorkerState(uint64_t seed, uint64_t items, double theta)
      : rng(seed), zipf(items, theta, seed ^ 0x9e37ULL) {}
  Random rng;
  ZipfianGenerator zipf;
  uint64_t committed = 0;
  uint64_t failed = 0;
  // Reader/writer split (readers = T3/T4/T5; writers = T1/T2/NewOrder).
  uint64_t read_committed = 0;
  uint64_t read_failed = 0;
  /// Root waits suffered by this worker while executing readers / writers
  /// (from LockManager::ThreadRootWaits deltas around each transaction).
  uint64_t reader_root_waits = 0;
  uint64_t writer_root_waits = 0;
};

/// \brief Generates and runs the five paper transaction types (plus
/// NewOrder) against a loaded order-entry database.
class OrderEntryWorkload {
 public:
  OrderEntryWorkload(Database* db, const OrderEntryTypes& types,
                     WorkloadOptions opts);

  /// Load the initial data (outside transactions).
  Status Setup();

  /// Run one randomly chosen transaction. Returns OK on commit; system
  /// aborts beyond the retry budget and application errors surface here.
  Status RunOne(WorkerState* ws);

  /// Run `txns_per_thread` transactions on each of `threads` workers.
  struct RunResult {
    uint64_t committed = 0;
    uint64_t failed = 0;
    double seconds = 0;
    double throughput_tps = 0;
    // Reader/writer split (readers = T3/T4/T5; writers = T1/T2/NewOrder).
    uint64_t read_committed = 0;
    uint64_t write_committed = 0;
    uint64_t read_failed = 0;
    uint64_t reader_root_waits = 0;
    uint64_t writer_root_waits = 0;
    double read_tps = 0;
    double write_tps = 0;
  };
  RunResult Run(int threads, int txns_per_thread);

  std::unique_ptr<WorkerState> MakeWorkerState(int worker_index) const;

  const LoadedData& data() const { return data_; }
  Database* db() const { return db_; }

  /// Sum of all items' TotalPayment — a consistency probe used by property
  /// tests (must match a serial replay).
  Result<int64_t> TotalPaymentAllItems();

 private:
  enum class TxnKind { kT1, kT2, kT3, kT4, kT5, kNewOrder };
  TxnKind PickKind(Random* rng) const;
  Oid PickItem(WorkerState* ws, size_t* index_out) const;
  int64_t PickOrder(WorkerState* ws, size_t item_index) const;

  Database* const db_;
  const OrderEntryTypes types_;
  const WorkloadOptions opts_;
  LoadedData data_;
  /// Highest known committed order number per item (grows with NewOrder).
  std::vector<std::unique_ptr<std::atomic<int64_t>>> max_order_;
};

}  // namespace orderentry
}  // namespace semcc

#endif  // SEMCC_APP_ORDERENTRY_WORKLOAD_H_
