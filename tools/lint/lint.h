// celect_lint: repo-aware static analysis for the celect source tree.
//
// The simulator's guarantees — bit-identical fingerprints at any
// --threads, replayable explorer counterexamples, byte-stable bench
// JSON — rest on contracts that runtime checks can only catch after the
// fact: no nondeterminism sources inside the deterministic core, every
// engine observable, every packet type handled, layering respected.
// This linter turns those contracts into compile-time-style findings.
//
// It is deliberately token/AST-lite: a comment/string-stripping scanner
// plus per-rule pattern logic over file pairs (foo.h + foo.cpp). No
// libclang dependency, so it builds and runs everywhere the tree does.
//
// Rule families (ids accepted by the suppression syntax below):
//
//   determinism
//     no-wall-clock         host clock reads (chrono clocks, time(),
//                           gettimeofday, ...) anywhere in src/
//     no-unseeded-rng       std::rand/random_device/std engines and
//                           distributions outside util/ (util/rng.h is
//                           the sanctioned seeded RNG)
//     no-unordered-iteration  iterating a std::unordered_* container
//                           (range-for or .begin()); iteration order is
//                           implementation-defined and leaks into
//                           message order, traces, and fingerprints
//     no-pointer-keys       std::{map,set,...} keyed by a pointer type;
//                           address order differs run to run
//
//   protocol contracts
//     proto-observe         every engine class under proto/ deriving
//                           from sim::Process overrides Observe()
//     proto-phase-spans     ... and emits BeginPhase/EndPhase spans
//     proto-packet-arms     every enumerator of a *Msg packet enum has
//                           a handler (case) arm and a send site
//
//   layering
//     layering              #include "celect/<dir>/..." must respect
//                           the allowed-dependency matrix (sim never
//                           includes harness, obs stays at the bottom
//                           of the stack, util includes nothing)
//
// Suppression: a finding on line L is silenced by a comment on L or on
// the line directly above:
//
//   // celect-lint: allow(rule-id[, rule-id...]) <justification>
//
// The justification is mandatory (an empty one is itself reported, as
// bad-suppression); a suppression that silences nothing is reported as
// unused-suppression at warning severity.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace celect::lint {

struct Finding {
  std::string file;  // path relative to the linted root
  int line = 1;      // 1-based
  std::string rule;
  std::string severity;  // "error" or "warning"
  std::string message;
};

struct LintResult {
  // Sorted by (file, line, rule) for byte-stable output.
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;

  bool HasErrors() const;
  std::size_t ErrorCount() const;
  std::size_t WarningCount() const;
};

// Every rule id the engine knows (what allow(...) accepts).
const std::vector<std::string>& RuleIds();

// Lints every .h/.cpp under `root` (the directory that contains
// "celect/"). Files the OS cannot read are reported as findings rather
// than silently skipped.
LintResult LintTree(const std::string& root);

// "file:line: severity: [rule] message" — the machine-readable line
// format consumed by CI.
std::string FormatFinding(const Finding& f);

// The whole result as a JSON document (findings + counts), for the CI
// artifact upload.
std::string FindingsJson(const LintResult& r);

}  // namespace celect::lint
