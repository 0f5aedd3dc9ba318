// matrix_verify: build-time verification of the commutativity matrices.
//
// Installs the full application registry (the paper's order-entry schema
// with the parameter-refined Fig. 2/3 predicates, plus the standard ADTs)
// into a scratch in-memory database and runs cc/matrix_verifier.h over it:
// cell symmetry, registration/dense agreement, predicate symmetry +
// determinism, and matrix totality (the retained-lock closure property the
// ancestor-commutativity walk relies on).
//
// The golden table (tests/golden/compat_matrix.txt) lists every registered
// cell per type and ends with the verdicts of the generic set operations,
// which the set types (Orders, QueueEntries) take instead of registered
// cells. Regenerate with:
//   build/tools/matrix_verify/matrix_verify --dump > tests/golden/compat_matrix.txt
//
// Runs as a ctest (see tools/matrix_verify/CMakeLists.txt) and as the CI
// `lint` leg. Modes:
//   matrix_verify                       verify; non-zero exit on any finding
//   matrix_verify --dump                verify, then print the exhaustive
//                                       verdict table to stdout
//   matrix_verify --check-golden=PATH   verify, then compare the table
//                                       against the committed golden file
//                                       (tests/golden/compat_matrix.txt) so
//                                       a matrix edit cannot land without
//                                       the reviewed table changing with it
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "adt/standard_adts.h"
#include "app/orderentry/order_entry.h"
#include "cc/matrix_verifier.h"
#include "core/database.h"

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "matrix_verify: %s\n", msg.c_str());
  return 1;
}

/// First line where the two texts differ, for a pointed golden-mismatch
/// message (the full table is regenerable with --dump).
std::string FirstDiff(const std::string& want, const std::string& got) {
  std::istringstream ws(want);
  std::istringstream gs(got);
  std::string wline;
  std::string gline;
  int line = 0;
  while (true) {
    ++line;
    const bool wok = static_cast<bool>(std::getline(ws, wline));
    const bool gok = static_cast<bool>(std::getline(gs, gline));
    if (!wok && !gok) return "texts are equal";
    if (wok != gok || wline != gline) {
      std::ostringstream os;
      os << "line " << line << ":\n  golden: "
         << (wok ? wline : "<end of file>")
         << "\n  actual: " << (gok ? gline : "<end of file>");
      return os.str();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = false;
  std::string golden_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strncmp(argv[i], "--check-golden=", 15) == 0) {
      golden_path = argv[i] + 15;
    } else {
      return Fail(std::string("unknown argument: ") + argv[i] +
                  " (usage: matrix_verify [--dump] [--check-golden=PATH])");
    }
  }

  semcc::Database db;
  semcc::orderentry::InstallOptions opts;
  // Verify the parameter-refined variant: it refines four of the paper's
  // Figure 2 conflict cells into predicates and exercises every cell kind
  // the registry can compile.
  opts.parameter_refined_item_matrix = true;
  auto installed = semcc::orderentry::Install(&db, opts);
  if (!installed.ok()) {
    return Fail("order-entry install failed: " +
                installed.status().ToString());
  }
  auto queue = semcc::adt::InstallQueue(&db);  // installs Counter too
  if (!queue.ok()) {
    return Fail("standard-ADT install failed: " + queue.status().ToString());
  }

  semcc::MatrixVerifier verifier(db.compat());
  const semcc::MatrixVerifyReport report = verifier.Verify();
  std::fprintf(stderr, "%s\n", report.ToString().c_str());
  if (!report.ok()) return 1;

  std::map<semcc::TypeId, std::string> names;
  for (semcc::TypeId t : db.compat()->RegisteredTypes()) {
    names[t] = db.schema()->TypeName(t);
  }
  const std::string table = verifier.DumpTable(&names);
  if (dump) std::fputs(table.c_str(), stdout);
  if (!golden_path.empty()) {
    std::ifstream in(golden_path);
    if (!in) return Fail("cannot open golden file " + golden_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (buf.str() != table) {
      return Fail("verdict table diverged from " + golden_path +
                  " — regenerate with `matrix_verify --dump > " +
                  golden_path + "` and review the diff\n" +
                  FirstDiff(buf.str(), table));
    }
    std::fprintf(stderr, "matrix_verify: table matches %s\n",
                 golden_path.c_str());
  }
  return 0;
}
