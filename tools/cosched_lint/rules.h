// Internal rule plumbing shared by lint.cpp (driver + line rules) and
// rules_graph.cpp (the cross-file analyses over the project index).
#pragma once

#include <string>
#include <vector>

#include "index.h"
#include "lint.h"

namespace cosched::lint {

/// One waiver comment found in the tree.  `used` flips when a finding is
/// suppressed by it; the driver reports the leftovers so stale waivers are
/// visible (the ordered()-audit workflow).
struct WaiverRecord {
  int file = 0;
  int line0 = 0;  ///< 0-based line holding the comment
  bool ordered = false;
  std::string rule;  ///< for allow(<rule>) waivers
  bool used = false;
};

/// Central finding sink: applies waiver lookup (same line or line above,
/// v1 semantics), splits findings/waived, and marks consumed waivers.
struct RuleSink {
  const std::vector<SourceFile>* files = nullptr;
  Report* report = nullptr;
  std::vector<WaiverRecord>* waivers = nullptr;

  void emit(int file, int line0, const std::string& rule, std::string message,
            bool accepts_ordered);
};

// The three cross-file analyses.
void rule_journal_coverage(const ProjectIndex& index, RuleSink& sink);
void rule_dispatch_exhaustiveness(const ProjectIndex& index, RuleSink& sink);
void rule_lock_order(const ProjectIndex& index, RuleSink& sink);

}  // namespace cosched::lint
