#include "app/orderentry/workload.h"

#include <thread>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace semcc {
namespace orderentry {

OrderEntryWorkload::OrderEntryWorkload(Database* db,
                                       const OrderEntryTypes& types,
                                       WorkloadOptions opts)
    : db_(db), types_(types), opts_(opts) {}

Status OrderEntryWorkload::Setup() {
  SEMCC_ASSIGN_OR_RETURN(data_, Load(db_, types_, opts_.load));
  max_order_.clear();
  for (int64_t n : data_.orders_per_item) {
    max_order_.push_back(std::make_unique<std::atomic<int64_t>>(n));
  }
  return Status::OK();
}

std::unique_ptr<WorkerState> OrderEntryWorkload::MakeWorkerState(
    int worker_index) const {
  return std::make_unique<WorkerState>(
      opts_.seed * 1315423911ULL + static_cast<uint64_t>(worker_index),
      data_.item_oids.size(), opts_.zipf_theta);
}

OrderEntryWorkload::TxnKind OrderEntryWorkload::PickKind(Random* rng) const {
  const int roll = static_cast<int>(rng->Uniform(100));
  int acc = opts_.pct_t1;
  if (roll < acc) return TxnKind::kT1;
  acc += opts_.pct_t2;
  if (roll < acc) return TxnKind::kT2;
  acc += opts_.pct_t3;
  if (roll < acc) return TxnKind::kT3;
  acc += opts_.pct_t4;
  if (roll < acc) return TxnKind::kT4;
  acc += opts_.pct_new_order;
  if (roll < acc) return TxnKind::kNewOrder;
  return TxnKind::kT5;
}

Oid OrderEntryWorkload::PickItem(WorkerState* ws, size_t* index_out) const {
  const size_t idx = static_cast<size_t>(ws->zipf.Next());
  if (index_out != nullptr) *index_out = idx;
  return data_.item_oids[idx];
}

int64_t OrderEntryWorkload::PickOrder(WorkerState* ws,
                                      size_t item_index) const {
  const int64_t max = max_order_[item_index]->load(std::memory_order_relaxed);
  if (max <= 0) return 1;
  return static_cast<int64_t>(ws->rng.Uniform(static_cast<uint64_t>(max))) + 1;
}

Status OrderEntryWorkload::RunOne(WorkerState* ws) {
  const TxnKind kind = PickKind(&ws->rng);
  const bool is_reader = kind == TxnKind::kT3 || kind == TxnKind::kT4 ||
                         kind == TxnKind::kT5;
  size_t i1 = 0;
  size_t i2 = 0;
  Oid item1 = PickItem(ws, &i1);
  Oid item2 = PickItem(ws, &i2);
  // T1-T4 operate on two *different* items (paper §2.3).
  for (int guard = 0; i2 == i1 && guard < 16 && data_.item_oids.size() > 1;
       ++guard) {
    item2 = PickItem(ws, &i2);
  }
  // Readers go through RunReadTransaction when snapshot_readers is set (a
  // lock-free snapshot with mvcc_reads, the plain locking path without).
  auto run_reader = [this](const std::string& name,
                           const TxnManager::Body& body) {
    return opts_.snapshot_readers
               ? db_->RunReadTransaction(name, body, opts_.max_retries)
               : db_->RunTransaction(name, body, opts_.max_retries);
  };
  const uint64_t waits_before = LockManager::ThreadRootWaits();
  const int64_t reader_think = opts_.reader_think_micros >= 0
                                   ? opts_.reader_think_micros
                                   : opts_.think_micros;
  Result<Value> r = Value();
  switch (kind) {
    case TxnKind::kT1:
      r = db_->RunTransaction(
          "T1",
          T1_ShipTwoOrders(item1, PickOrder(ws, i1), item2, PickOrder(ws, i2),
                           opts_.think_micros),
          opts_.max_retries);
      break;
    case TxnKind::kT2:
      r = db_->RunTransaction(
          "T2",
          T2_PayTwoOrders(item1, PickOrder(ws, i1), item2, PickOrder(ws, i2),
                          opts_.think_micros),
          opts_.max_retries);
      break;
    case TxnKind::kT3:
      r = run_reader("T3", T3_CheckShipment(item1, PickOrder(ws, i1), item2,
                                            PickOrder(ws, i2), reader_think));
      break;
    case TxnKind::kT4:
      r = run_reader("T4", T4_CheckPayment(item1, PickOrder(ws, i1), item2,
                                           PickOrder(ws, i2), reader_think));
      break;
    case TxnKind::kT5: {
      const int repeat = opts_.t5_double_scan ? 2 : 1;
      r = opts_.t5_scan_all
              ? run_reader("T5", T5_TotalPaymentScan(data_.item_oids, repeat))
              : run_reader("T5", T5_TotalPayment(item1, repeat));
      break;
    }
    case TxnKind::kNewOrder: {
      const int64_t customer = static_cast<int64_t>(ws->rng.Uniform(1000)) + 1;
      const int64_t qty = static_cast<int64_t>(ws->rng.Uniform(9)) + 1;
      // Lower bound on the OrderNo this call will allocate: NextOrderNo is
      // monotone, so the highest order number any transaction has observed
      // committed, plus one, is always safe. Under the refined Item matrix
      // the NewOrder then commutes with Ship/Pay of existing orders.
      const int64_t hint =
          max_order_[i1]->load(std::memory_order_relaxed) + 1;
      r = db_->RunTransaction("TN", TN_EnterOrder(item1, customer, qty, hint),
                              opts_.max_retries);
      if (r.ok()) {
        // Publish the new order number so later transactions can pick it.
        const int64_t newly = r.ValueOrDie().AsInt();
        std::atomic<int64_t>& slot = *max_order_[i1];
        int64_t cur = slot.load(std::memory_order_relaxed);
        while (cur < newly && !slot.compare_exchange_weak(
                                  cur, newly, std::memory_order_relaxed)) {
        }
      }
      break;
    }
  }
  const uint64_t waits = LockManager::ThreadRootWaits() - waits_before;
  if (is_reader) {
    ws->reader_root_waits += waits;
  } else {
    ws->writer_root_waits += waits;
  }
  if (r.ok()) {
    ws->committed++;
    if (is_reader) ws->read_committed++;
    return Status::OK();
  }
  ws->failed++;
  if (is_reader) ws->read_failed++;
  return r.status();
}

OrderEntryWorkload::RunResult OrderEntryWorkload::Run(int threads,
                                                      int txns_per_thread) {
  RunResult result;
  std::vector<std::thread> workers;
  std::vector<std::unique_ptr<WorkerState>> states;
  states.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) states.push_back(MakeWorkerState(w));
  StopWatch sw;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([this, &states, w, txns_per_thread]() {
      WorkerState* ws = states[static_cast<size_t>(w)].get();
      for (int i = 0; i < txns_per_thread; ++i) {
        Status st = RunOne(ws);
        if (!st.ok() && !st.IsDeadlock() && !st.IsTimedOut() &&
            !st.IsAborted()) {
          SEMCC_LOG(Warn) << "workload txn failed: " << st.ToString();
        }
      }
    });
  }
  for (std::thread& th : workers) th.join();
  result.seconds = sw.ElapsedSeconds();
  for (const auto& ws : states) {
    result.committed += ws->committed;
    result.failed += ws->failed;
    result.read_committed += ws->read_committed;
    result.read_failed += ws->read_failed;
    result.reader_root_waits += ws->reader_root_waits;
    result.writer_root_waits += ws->writer_root_waits;
  }
  result.write_committed = result.committed - result.read_committed;
  if (result.seconds > 0) {
    result.throughput_tps =
        static_cast<double>(result.committed) / result.seconds;
    result.read_tps =
        static_cast<double>(result.read_committed) / result.seconds;
    result.write_tps =
        static_cast<double>(result.write_committed) / result.seconds;
  }
  return result;
}

Result<int64_t> OrderEntryWorkload::TotalPaymentAllItems() {
  int64_t total = 0;
  for (Oid item : data_.item_oids) {
    SEMCC_ASSIGN_OR_RETURN(Value v,
                           db_->RunTransaction("T5", T5_TotalPayment(item)));
    total += v.AsInt();
  }
  return total;
}

}  // namespace orderentry
}  // namespace semcc
