// cosched-lint: domain-rule static checks the compiler cannot express.
//
// v2: every file is parsed once by a lightweight tokenizer into a shared
// project index (index.h) — functions, enums, case arms, lock sites,
// annotations — and the rules run over that index.  The per-line rules keep
// their v1 behavior; three cross-file analyses walk the whole-project model.
// The rules enforce the invariants the runtime defenses (TSan, invariant
// reports, kill-anywhere recovery) only catch when a test happens to hit
// them:
//
//   journal-before-mutate  every state-mutating Cluster method appends a
//                          journal record in the same body as the mutation
//                          (the PR 3 write-ahead rule; commit happens at the
//                          entry-point boundary)
//   lease-journal          every mutation of the Cluster lease table
//                          (leases_) is *preceded* in the same body by a
//                          journal append — strict write-ahead ordering, not
//                          just same-body presence, because a crash between
//                          a lease change and its record replays to a
//                          different fencing state (replay/restore methods
//                          exempt by name)
//   dedup-before-reply     RpcDedup verdicts are recorded (and thereby
//                          journaled durable) before the dispatcher builds
//                          the reply
//   banned-call            no rand()/srand()/system_clock/argless time() in
//                          the deterministic core (core, sched, sim,
//                          workload) — wall clocks and libc PRNGs break
//                          replay and fingerprint equality
//   unordered-iter         no iteration over unordered_{map,set} without an
//                          explicit `// cosched-lint: ordered(<reason>)`
//                          waiver — hash order leaking into fingerprints,
//                          metrics, or wire output is the classic silent
//                          determinism bug
//   journal-coverage       every JournalRecordKind enumerator has a writer
//                          site (append/frame/encode_frame), a replay arm in
//                          the journal apply switch (apply_record, recover_
//                          from_journal, or the salvage/fallback helpers),
//                          a to_string name arm, and its replay-arm state is
//                          covered by write_snapshot/apply_snapshot — a kind
//                          missing any of these silently loses state across
//                          recovery/compaction.  Also: a function that rolls
//                          a snapshot generation (write_snapshot + compact)
//                          must commit the journal first, or buffered
//                          records are spliced out of the durable image
//                          (set_journal and emergency_compact are exempt)
//   dispatch-exhaustiveness  every MsgType request enumerator has a dispatch
//                          arm, and every arm whose effects run through a
//                          helper still records a dedup verdict before the
//                          reply (the whole-dispatch-graph generalization of
//                          dedup-before-reply)
//   lock-order             the project-wide mutex acquisition graph (nested
//                          MutexLock scopes, calls made under a lock,
//                          REQUIRES-held edges) must be acyclic — a cycle is
//                          a latent ABBA deadlock even if no test interleaves
//                          it
//
// Escape hatches (same line or the line above the finding):
//   // cosched-lint: ordered(<why hash order cannot leak>)   unordered-iter
//   // cosched-lint: allow(<rule>) <why>                      any rule
// Waivers are counted and reported so a review can see the debt.
#pragma once

#include <string>
#include <vector>

namespace cosched::lint {

struct Finding {
  std::string file;
  int line = 0;          ///< 1-based
  std::string rule;      ///< rule id, e.g. "unordered-iter"
  std::string message;
};

struct SourceFile {
  std::string path;                 ///< as reported in findings
  std::vector<std::string> lines;   ///< raw file lines
};

struct Report {
  std::vector<Finding> findings;        ///< unwaived — these fail the run
  std::vector<Finding> waived;          ///< suppressed by ordered()/allow()
  int ordered_waivers_used = 0;
  int allow_waivers_used = 0;
  std::size_t files_scanned = 0;
  /// Waiver comments that suppressed nothing this run (rule "unused-waiver",
  /// line = the comment's line).  Reported, never failing — the signal that
  /// drives waiver audits.
  std::vector<Finding> unused_waivers;
};

/// Splits file contents into lines (tolerates missing trailing newline).
std::vector<std::string> split_lines(const std::string& contents);

/// Runs every rule over `files`.  Cross-file context (unordered member
/// declarations in a .cpp's same-stem header, unordered-returning accessor
/// names from any header) is gathered from the same set, so callers should
/// pass headers and sources together.
Report run_lint(const std::vector<SourceFile>& files);

/// Loads every *.h / *.cpp under each root (recursively; a root may also be
/// a single file) and lints them.  `error` receives a message on I/O
/// failure.
bool lint_paths(const std::vector<std::string>& roots, Report& out,
                std::string& error);

/// Formats one finding as "file:line: [rule] message".
std::string to_string(const Finding& f);

/// Renders the full report as JSON with stable key and array order:
/// files_scanned / ordered_waivers / allow_waivers, the three finding
/// arrays (each sorted by file, line, rule), and a per-rule
/// {findings, waived} tally covering every known rule id.
std::string to_json(const Report& r);

}  // namespace cosched::lint
