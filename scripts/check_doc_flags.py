#!/usr/bin/env python3
"""Doc-lint: the option structs and the docs must agree in both directions.

Usage: check_doc_flags.py [--header src/cc/lock_manager.h] [--doc README.md]
                          [--design DESIGN.md] [--experiments EXPERIMENTS.md]
                          [--tuning TUNING.md]

Parses the `struct ProtocolOptions { ... }` block and the `enum class
Protocol { ... }` enumerators out of the header, and the other option
structs (OPTION_STRUCTS) out of theirs, with a small brace-tracking scanner
(no compiler needed), then checks:

  1. every ProtocolOptions field appears in the README flag reference AND in
     DESIGN.md AND in EXPERIMENTS.md (a new knob cannot land without user
     docs, a design rationale, and a recorded experiment or explicit
     mention),
  2. every row of the README flag-reference table names a real
     ProtocolOptions field,
  3. every `Struct::x` mention of an option struct (ProtocolOptions,
     DatabaseOptions, RecoveryOptions, WalOptions, FileLogDeviceOptions) in
     any of the four docs names a real field of that struct, and
  4. every backticked snake_case identifier in TUNING.md (knobs, stats
     fields, bench columns) occurs in the sources under src/, bench/,
     tools/ or scripts/, and
  5. every Protocol enumerator appears in the `protocol` row of the README
     flag-reference table AND of EXPERIMENTS.md's knob index (each compared
     configuration is a Protocol value, not a field, so check 1 alone would
     let one land undocumented).

Checks 2-4 mean renaming or deleting a knob cannot leave stale prose
behind. Exits non-zero listing each violation; this runs as the CI
doc-lint step and as the `doc_flags` ctest.
"""

import argparse
import pathlib
import re
import sys

FIELD_RE = re.compile(
    r"^\s*(?:[A-Za-z_][A-Za-z0-9_:<>,\s]*?)\s+"  # type (possibly qualified)
    r"([a-z_][a-z0-9_]*)\s*"                     # field name
    r"(?:=[^;]*|\{[^;]*\})?;"                    # optional = or {} default
)

# Option structs other than ProtocolOptions whose `Struct::field` mentions
# in the docs must resolve, with the header (relative to the repo root)
# that defines each.
OPTION_STRUCTS = {
    "DatabaseOptions": "src/core/database.h",
    "RecoveryOptions": "src/recovery/recovery_manager.h",
    "WalOptions": "src/recovery/wal.h",
    "FileLogDeviceOptions": "src/recovery/file_log_device.h",
}


def braced_body(header_text, opener):
    """Text between the braces that follow `opener` (e.g. "struct X ")."""
    start = header_text.find(opener)
    if start < 0:
        raise ValueError(f"{opener.strip()} not found")
    brace = header_text.find("{", start)
    depth = 0
    end = brace
    for i in range(brace, len(header_text)):
        if header_text[i] == "{":
            depth += 1
        elif header_text[i] == "}":
            depth -= 1
            if depth == 0:
                end = i
                break
    return header_text[brace + 1:end]


def struct_fields(header_text, struct):
    body = braced_body(header_text, f"struct {struct} ")
    fields = []
    for line in body.splitlines():
        stripped = line.split("//")[0].strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = FIELD_RE.match(stripped)
        if m:
            fields.append(m.group(1))
    if not fields:
        raise ValueError(f"no fields parsed from {struct}")
    return list(dict.fromkeys(fields))  # dedupe #if-branched fields


def enumerators(header_text, enum):
    """Enumerator names of `enum class <enum>`, in declaration order."""
    body = braced_body(header_text, f"enum class {enum} ")
    code = "\n".join(line.split("//")[0] for line in body.splitlines())
    names = re.findall(r"^\s*(k\w+)", code, re.M)
    if not names:
        raise ValueError(f"no enumerators parsed from {enum}")
    return names


def table_rows(text, heading):
    """(lineno, name, line) of each table row under the `## <heading>`
    section whose first cell is one backticked name."""
    rows = []
    in_table_section = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("## "):
            in_table_section = line.startswith(f"## {heading}")
            continue
        m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if in_table_section and m:
            rows.append((lineno, m.group(1), line))
    return rows


def missing_enumerators(text, heading, names):
    """Enumerators absent from the `protocol` row of the table under
    `heading`, or None if the section has no such row."""
    for _, name, line in table_rows(text, heading):
        if name == "protocol":
            return [e for e in names if not re.search(rf"\b{e}\b", line)]
    return None


def source_identifiers(repo):
    """Every identifier-shaped token in the program sources and scripts."""
    tokens = set()
    for top in ("src", "bench", "tools", "scripts"):
        for path in (repo / top).rglob("*"):
            if path.suffix in (".h", ".cc", ".cpp", ".py", ".sh"):
                tokens.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                         path.read_text()))
    return tokens


def unknown_identifiers(doc_text, known):
    """Backticked snake_case identifiers absent from `known`, with lines."""
    unknown = []
    for lineno, line in enumerate(doc_text.splitlines(), 1):
        for span in re.findall(r"`([^`]+)`", line):
            for name in re.findall(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b",
                                   span):
                if name not in known:
                    unknown.append((lineno, name))
    return unknown


def stale_mentions(doc_text, struct_fields_by_name):
    """`Struct::x` mentions that name no real field, with lines."""
    names = "|".join(map(re.escape, struct_fields_by_name))
    stale = []
    for lineno, line in enumerate(doc_text.splitlines(), 1):
        for m in re.finditer(rf"\b({names})::([A-Za-z_][A-Za-z0-9_]*)",
                             line):
            if m.group(2) not in struct_fields_by_name[m.group(1)]:
                stale.append((lineno, m.group(1), m.group(2)))
    return stale


def main():
    ap = argparse.ArgumentParser()
    repo = pathlib.Path(__file__).resolve().parent.parent
    ap.add_argument("--header", default=str(repo / "src/cc/lock_manager.h"))
    ap.add_argument("--doc", default=str(repo / "README.md"))
    ap.add_argument("--design", default=str(repo / "DESIGN.md"))
    ap.add_argument("--experiments", default=str(repo / "EXPERIMENTS.md"))
    ap.add_argument("--tuning", default=str(repo / "TUNING.md"))
    args = ap.parse_args()

    header_text = pathlib.Path(args.header).read_text()
    fields = struct_fields(header_text, "ProtocolOptions")
    protocols = enumerators(header_text, "Protocol")
    option_fields = {"ProtocolOptions": set(fields)}
    for struct, header in OPTION_STRUCTS.items():
        option_fields[struct] = set(
            struct_fields((repo / header).read_text(), struct))

    hints = {
        args.doc: "(add a row for each to the README flag-reference table)",
        args.design: "(describe the mechanism in the relevant DESIGN.md "
                     "section)",
        args.experiments: "(record the knob's ablation/experiment, or at "
                          "least name it, in EXPERIMENTS.md)",
    }

    # Check 5: where each document lists the Protocol values.
    protocol_rows = {args.doc: "Flag reference",
                     args.experiments: "Knob → experiment index"}

    failed = False
    rows = []
    for doc in (args.doc, args.design, args.experiments, args.tuning):
        path = pathlib.Path(doc)
        if not path.is_file():
            print(f"doc-lint: required doc {doc} is missing")
            failed = True
            continue
        text = path.read_text()
        missing = []
        if doc in hints:  # TUNING.md covers only the knobs worth tuning
            missing = [f for f in fields
                       if not re.search(rf"\b{re.escape(f)}\b", text)]
        if missing:
            print(f"doc-lint: {doc} is missing these ProtocolOptions "
                  "fields:")
            for f in missing:
                print(f"  {f}")
            print(hints[doc])
            failed = True
        stale = stale_mentions(text, option_fields)
        for lineno, struct, name in stale:
            print(f"doc-lint: {doc}:{lineno}: "
                  f"{struct}::{name} does not name a real field "
                  "(renamed or removed knob? update the prose)")
        failed = failed or bool(stale)

        if doc in protocol_rows:
            heading = protocol_rows[doc]
            absent = missing_enumerators(text, heading, protocols)
            if absent is None:
                print(f"doc-lint: {doc} has no `protocol` row under "
                      f"'## {heading}'")
                failed = True
            elif absent:
                print(f"doc-lint: {doc}: the `protocol` row under "
                      f"'## {heading}' is missing these Protocol values:")
                for e in absent:
                    print(f"  {e}")
                failed = True

        if doc == args.doc:
            rows = table_rows(text, "Flag reference")
            if not rows:
                print(f"doc-lint: {doc} has no flag-reference table rows "
                      "(expected under a '## Flag reference' heading)")
                failed = True
            for lineno, name, _ in rows:
                if name not in fields:
                    print(f"doc-lint: {doc}:{lineno}: flag-reference row "
                          f"`{name}` names no ProtocolOptions field "
                          "(renamed or removed knob? delete or fix the row)")
                    failed = True
        if doc == args.tuning:
            known = source_identifiers(repo) | set(fields)
            for lineno, name in unknown_identifiers(text, known):
                print(f"doc-lint: {doc}:{lineno}: `{name}` occurs nowhere "
                      "in src/, bench/, tools/ or scripts/ (renamed or "
                      "removed knob or counter? update the prose)")
                failed = True

    if failed:
        return 1
    print(f"doc-lint: all {len(fields)} ProtocolOptions fields documented "
          f"in README, DESIGN, and EXPERIMENTS; all {len(rows)} README flag "
          "rows, option-struct mentions and TUNING identifiers resolve; "
          f"all {len(protocols)} Protocol values listed in README and "
          "EXPERIMENTS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
