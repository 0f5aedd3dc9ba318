#include "cc/matrix_verifier.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include "cc/method_interner.h"

namespace semcc {

namespace {

using CellKind = CompatibilityRegistry::CellKind;

const char* CellKindName(CellKind k) {
  switch (k) {
    case CellKind::kCellUnknown:
      return "unknown";
    case CellKind::kCellCompatible:
      return "compatible";
    case CellKind::kCellConflict:
      return "conflict";
    case CellKind::kCellPredicate:
      return "predicate";
  }
  return "?";
}

}  // namespace

std::string MatrixDiagnostic::ToString() const {
  std::ostringstream os;
  os << "[" << check << "] type " << type << ": " << detail;
  return os.str();
}

std::string MatrixVerifyReport::ToString() const {
  std::ostringstream os;
  for (const MatrixDiagnostic& d : diagnostics) os << d.ToString() << "\n";
  if (behavioral_skipped) {
    os << "(behavioral sampling skipped: structural defects above make "
          "Commute() unsafe to call)\n";
  }
  os << (ok() ? "OK" : "FAILED") << ": " << types_checked << " types, "
     << cells_checked << " cells, " << verdicts_sampled
     << " sampled verdicts, " << diagnostics.size() << " diagnostics";
  return os.str();
}

MatrixVerifier::MatrixVerifier(const CompatibilityRegistry* compat)
    : compat_(compat) {
  // Built-in argument samples: nullary, two distinct int keys (OrderNo /
  // set keys), two distinct string events (Fig. 3), a two-arg shape
  // (NewOrder(CustomerNo, Quantity)) and a three-arg one
  // (NewOrder(CustomerNo, Quantity, hint), whose hint 2 lies above order 1
  // and equals order 2). Every registered predicate must be total over
  // these (the Fig. 3 predicates guard empty args themselves).
  samples_.push_back(Args{});
  samples_.push_back(Args{Value(int64_t{1})});
  samples_.push_back(Args{Value(int64_t{2})});
  samples_.push_back(Args{Value("shipped")});
  samples_.push_back(Args{Value("paid")});
  samples_.push_back(Args{Value(int64_t{1}), Value(int64_t{2})});
  samples_.push_back(
      Args{Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{2})});
}

std::vector<std::string> MatrixVerifier::MethodUniverse(TypeId type) const {
  std::vector<std::string> universe = compat_->MethodsOf(type);
  std::set<std::string> seen(universe.begin(), universe.end());
  std::vector<std::string> undeclared;
  for (const auto& [m1, m2] : compat_->RegisteredPairs(type)) {
    if (seen.insert(m1).second) undeclared.push_back(m1);
    if (seen.insert(m2).second) undeclared.push_back(m2);
  }
  std::sort(undeclared.begin(), undeclared.end());
  universe.insert(universe.end(), undeclared.begin(), undeclared.end());
  return universe;
}

void MatrixVerifier::VerifyStructural(TypeId type,
                                      MatrixVerifyReport* report) const {
  MethodInterner& interner = MethodInterner::Global();
  const uint32_t dim = compat_->CompiledDim(type);
  const auto pairs = compat_->RegisteredPairs(type);
  if (dim == 0) {
    report->diagnostics.push_back(
        {"registration-agreement", type,
         "type has registered entries but no compiled table"});
    return;
  }

  // --- cell-symmetry: the dense table must equal its transpose ------------
  for (MethodId i = 0; i < dim; ++i) {
    for (MethodId j = i + 1; j < dim; ++j) {
      const CellKind ij = compat_->CompiledCell(type, i, j);
      const CellKind ji = compat_->CompiledCell(type, j, i);
      ++report->cells_checked;
      if (ij != ji) {
        report->diagnostics.push_back(
            {"cell-symmetry", type,
             "cell(" + interner.NameOf(i) + ", " + interner.NameOf(j) +
                 ")=" + CellKindName(ij) + " but cell(" + interner.NameOf(j) +
                 ", " + interner.NameOf(i) + ")=" + CellKindName(ji) +
                 " — commutativity is symmetric by definition"});
      }
    }
  }

  // --- registration-agreement: registered view <-> compiled cells ---------
  std::set<std::pair<MethodId, MethodId>> registered_ids;
  for (const auto& [m1, m2] : pairs) {
    const MethodId a = interner.Lookup(m1);
    const MethodId b = interner.Lookup(m2);
    if (a == kInvalidMethodId || b == kInvalidMethodId) {
      report->diagnostics.push_back(
          {"registration-agreement", type,
           "registered pair (" + m1 + ", " + m2 + ") has uninterned names"});
      continue;
    }
    registered_ids.insert({a, b});
    registered_ids.insert({b, a});
    CellKind expected = CellKind::kCellPredicate;
    if (auto entry = compat_->StaticEntry(type, m1, m2); entry.has_value()) {
      expected =
          *entry ? CellKind::kCellCompatible : CellKind::kCellConflict;
    } else if (!compat_->HasPredicate(type, m1, m2)) {
      report->diagnostics.push_back(
          {"registration-agreement", type,
           "registered pair (" + m1 + ", " + m2 +
               ") is neither static nor predicate"});
      continue;
    }
    for (const auto& [x, y] : {std::pair(a, b), std::pair(b, a)}) {
      const CellKind got = compat_->CompiledCell(type, x, y);
      ++report->cells_checked;
      if (got != expected) {
        report->diagnostics.push_back(
            {"registration-agreement", type,
             "pair (" + m1 + ", " + m2 + ") registered as " +
                 CellKindName(expected) + " but cell(" + interner.NameOf(x) +
                 ", " + interner.NameOf(y) + ") compiled to " +
                 CellKindName(got)});
      }
    }
  }
  for (MethodId i = 0; i < dim; ++i) {
    for (MethodId j = 0; j < dim; ++j) {
      if (compat_->CompiledCell(type, i, j) == CellKind::kCellUnknown) {
        continue;
      }
      if (registered_ids.count({i, j}) == 0) {
        report->diagnostics.push_back(
            {"registration-agreement", type,
             "compiled cell(" + interner.NameOf(i) + ", " +
                 interner.NameOf(j) + ") is " +
                 CellKindName(compat_->CompiledCell(type, i, j)) +
                 " but no entry was registered for the pair"});
      }
    }
  }

  // --- matrix-totality (retained-lock closure, Fig. 8/9) ------------------
  // Every pair over the type's declared/registered methods needs a verdict:
  // an unregistered pair falls through to the generic rules, else conflict,
  // so the ancestor-commutativity walk would be silently stricter at this
  // type than the ADT's specification intends.
  const std::vector<std::string> universe = MethodUniverse(type);
  for (size_t i = 0; i < universe.size(); ++i) {
    for (size_t j = i; j < universe.size(); ++j) {
      const MethodId a = interner.Lookup(universe[i]);
      const MethodId b = interner.Lookup(universe[j]);
      if (a == kInvalidMethodId || b == kInvalidMethodId) continue;
      if (a < generic_ids::kNumGenericOps &&
          b < generic_ids::kNumGenericOps) {
        continue;  // generic pairs have built-in rules
      }
      if (compat_->CompiledCell(type, a, b) == CellKind::kCellUnknown) {
        report->diagnostics.push_back(
            {"matrix-totality", type,
             "pair (" + universe[i] + ", " + universe[j] +
                 ") has no registered verdict: it degrades to the conflict "
                 "default, making parent-level cells stricter than the "
                 "Case 1/2 relief requires"});
      }
    }
  }
}

void MatrixVerifier::VerifyBehavioral(TypeId type,
                                      MatrixVerifyReport* report) const {
  const std::vector<std::string> universe = MethodUniverse(type);

  // --- predicate symmetry + determinism over the samples ------------------
  for (size_t i = 0; i < universe.size(); ++i) {
    for (size_t j = i; j < universe.size(); ++j) {
      const std::string& m1 = universe[i];
      const std::string& m2 = universe[j];
      if (!compat_->HasPredicate(type, m1, m2)) continue;
      for (const Args& a : samples_) {
        for (const Args& b : samples_) {
          const bool fwd = compat_->Commute(type, m1, a, m2, b);
          const bool rev = compat_->Commute(type, m2, b, m1, a);
          report->verdicts_sampled += 2;
          if (fwd != rev) {
            report->diagnostics.push_back(
                {"pred-symmetry", type,
                 m1 + ArgsToString(a) + " vs " + m2 + ArgsToString(b) +
                     " commutes=" + (fwd ? "true" : "false") +
                     " but the swapped query says " +
                     (rev ? "true" : "false")});
          }
          if (compat_->Commute(type, m1, a, m2, b) != fwd) {
            report->diagnostics.push_back(
                {"pred-determinism", type,
                 m1 + ArgsToString(a) + " vs " + m2 + ArgsToString(b) +
                     " changed verdict on re-evaluation — predicates must "
                     "be pure functions of the argument lists"});
          }
        }
      }
    }
  }
}

MatrixVerifyReport MatrixVerifier::Verify() const {
  MatrixVerifyReport report;
  const std::vector<TypeId> types = compat_->RegisteredTypes();
  report.types_checked = types.size();
  for (TypeId type : types) VerifyStructural(type, &report);
  if (!report.diagnostics.empty()) {
    // A structurally broken table (e.g. a cell claiming kPredicate with no
    // compiled predicate behind it) makes Commute() unsafe; report the
    // structural defects alone.
    report.behavioral_skipped = true;
    return report;
  }
  for (TypeId type : types) VerifyBehavioral(type, &report);
  return report;
}

std::string MatrixVerifier::DumpTable(
    const std::map<TypeId, std::string>* type_names) const {
  MethodInterner& interner = MethodInterner::Global();
  std::ostringstream os;
  os << "# semcc compatibility verdict table (matrix_verify --dump)\n"
     << "# pred{...} cells enumerate the verdict for every ordered sample\n"
     << "# pair; samples: ";
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (i > 0) os << " ";
    os << "s" << i << "=" << ArgsToString(samples_[i]);
  }
  os << "\n";
  // One character per ordered sample pair: 1 commute, 0 conflict.
  auto sample_bits = [this](const auto& commute) {
    std::string bits;
    for (const Args& x : samples_) {
      for (const Args& y : samples_) bits += commute(x, y) ? '1' : '0';
    }
    return bits;
  };
  for (TypeId type : compat_->RegisteredTypes()) {
    os << "type " << type;
    if (type_names != nullptr) {
      auto it = type_names->find(type);
      if (it != type_names->end()) os << " (" << it->second << ")";
    }
    os << "\n";
    const std::vector<std::string> universe = MethodUniverse(type);
    for (const std::string& m : universe) os << "  method " << m << "\n";
    for (size_t i = 0; i < universe.size(); ++i) {
      for (size_t j = i; j < universe.size(); ++j) {
        const std::string& m1 = universe[i];
        const std::string& m2 = universe[j];
        os << "  cell " << m1 << " x " << m2 << " = ";
        if (auto entry = compat_->StaticEntry(type, m1, m2);
            entry.has_value()) {
          os << (*entry ? "commute" : "conflict");
        } else if (compat_->HasPredicate(type, m1, m2)) {
          os << "pred{" << sample_bits([&](const Args& x, const Args& y) {
            return compat_->Commute(type, m1, x, m2, y);
          }) << "}";
        } else {
          os << "unregistered";
        }
        os << "\n";
      }
    }
  }
  // Set types register no cells: every set operation reaches
  // GenericCommute through the kUnknown cell, so its verdicts are listed
  // once, for all set types.
  using namespace generic_ids;
  const MethodId set_ops[] = {kInsert, kRemove, kSelect, kMember,
                              kRangeScan, kScan, kSize};
  os << "generic set operations\n";
  for (MethodId m : set_ops) os << "  method " << interner.NameOf(m) << "\n";
  for (size_t i = 0; i < std::size(set_ops); ++i) {
    for (size_t j = i; j < std::size(set_ops); ++j) {
      const MethodId a = set_ops[i];
      const MethodId b = set_ops[j];
      const std::string bits = sample_bits([&](const Args& x, const Args& y) {
        return CompatibilityRegistry::GenericCommute(a, x, b, y)
            .value_or(false);
      });
      os << "  cell " << interner.NameOf(a) << " x " << interner.NameOf(b)
         << " = ";
      if (bits.find('0') == std::string::npos) {
        os << "commute";
      } else if (bits.find('1') == std::string::npos) {
        os << "conflict";
      } else {
        os << "pred{" << bits << "}";
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace semcc
