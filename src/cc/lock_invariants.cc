#include "cc/lock_invariants.h"

#include <deque>
#include <sstream>

namespace semcc {

std::string LockInvariantStats::ToString() const {
  std::ostringstream os;
  os << "invariant checks=" << checks.load()
     << " grant_violations=" << grant_violations.load()
     << " retained_violations=" << retained_violations.load()
     << " leaked_locks=" << leaked_locks.load()
     << " wait_cycle_violations=" << wait_cycle_violations.load()
     << " order_inversions=" << order_inversions.load();
  return os.str();
}

bool LockOrderGraph::AddEdge(uint64_t from, uint64_t to) {
  if (from == to) return true;  // re-acquiring the same target is not an edge
  auto& succ = adj_[from];
  if (succ.count(to) != 0) return true;  // known edge: already judged
  const bool inversion = Reachable(to, from);
  succ.insert(to);
  return !inversion;
}

bool LockOrderGraph::Reachable(uint64_t from, uint64_t to) const {
  if (from == to) return true;
  std::set<uint64_t> seen;
  std::deque<uint64_t> frontier{from};
  while (!frontier.empty()) {
    const uint64_t node = frontier.front();
    frontier.pop_front();
    if (!seen.insert(node).second) continue;
    auto it = adj_.find(node);
    if (it == adj_.end()) continue;
    for (uint64_t next : it->second) {
      if (next == to) return true;
      frontier.push_back(next);
    }
  }
  return false;
}

size_t LockOrderGraph::num_edges() const {
  size_t n = 0;
  for (const auto& [node, succ] : adj_) n += succ.size();
  return n;
}

void LockOrderGraph::Clear() { adj_.clear(); }

}  // namespace semcc
