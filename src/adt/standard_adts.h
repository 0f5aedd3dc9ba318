// Reusable encapsulated ADTs built on the semcc core.
//
// The paper's §1.2 criticism of prior ADT concurrency control is that it
// "assumes that all ADT objects are directly implemented by the storage
// manager. This means that ADTs cannot be implemented in terms of other
// ADTs." These components exist to exercise exactly that capability:
//
//  * Counter — an encapsulated numeric cell.
//      Increment(n) / Decrement(n)  commute with each other (escrow-style);
//      Next()                       increment-and-return: formally
//                                   self-CONFLICTING (the two return values
//                                   swap under reordering);
//      Read()                       conflicts with all updates.
//
//  * Queue — the paper's own §1.1 motivating example ("enqueueing the same
//    item by two concurrent transactions is not a conflict"). Implemented
//    IN TERMS OF a Counter: Enqueue invokes Counter.Next() on the tail
//    counter to obtain a position, then inserts the element into a set.
//    At the Queue level Enqueue/Enqueue commute; the conflicting
//    Counter.Next pair underneath is relieved by the commutative-ancestor
//    test (Case 2 while the first Enqueue runs, Case 1 afterwards) — a
//    library-shaped demonstration of the protocol's whole point.
//      Enqueue(v) -> pos   commutes with Enqueue;
//      Dequeue() -> v      removes and returns the oldest element
//                          (min-position scan, so holes left by compensated
//                          Enqueues are harmless); conflicts with everything
//                          but reads of other keys;
//      Size() / Front()    read-only, conflict with updates.
#ifndef SEMCC_ADT_STANDARD_ADTS_H_
#define SEMCC_ADT_STANDARD_ADTS_H_

#include "core/database.h"

namespace semcc {
namespace adt {

struct CounterType {
  TypeId number = kInvalidTypeId;  // shared atomic type
  TypeId counter = kInvalidTypeId;
};

/// Register the Counter type, methods, and compatibility entries.
Result<CounterType> InstallCounter(Database* db);

/// Create a counter object (outside transactions; for transactional
/// creation go through a method of an enclosing ADT).
Result<Oid> NewCounter(Database* db, const CounterType& t, int64_t initial);

struct QueueType {
  CounterType counter;
  TypeId entries_set = kInvalidTypeId;
  TypeId queue = kInvalidTypeId;
};

/// Register the Queue type (installs Counter if absent) with methods
/// Enqueue/Dequeue/Size/Front and the §1.1 compatibility matrix.
Result<QueueType> InstallQueue(Database* db);

Result<Oid> NewQueue(Database* db, const QueueType& t);

}  // namespace adt
}  // namespace semcc

#endif  // SEMCC_ADT_STANDARD_ADTS_H_
