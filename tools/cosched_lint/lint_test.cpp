// Fixture suite for cosched_lint: the tool must flag exactly the known-bad
// snippets and accept the known-good ones (counting their waivers).  Runs
// under the `lint` ctest label next to the tree scan, so a rule regression
// fails CI the same way a rule violation would.
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

namespace cosched::lint {
namespace {

#ifndef COSCHED_LINT_FIXTURES
#error "COSCHED_LINT_FIXTURES must point at the fixture directory"
#endif

Report lint_dir(const std::string& sub) {
  Report report;
  std::string error;
  const bool ok =
      lint_paths({std::string(COSCHED_LINT_FIXTURES) + "/" + sub}, report,
                 error);
  EXPECT_TRUE(ok) << error;
  return report;
}

std::set<std::string> rules_hit(const Report& r) {
  std::set<std::string> rules;
  for (const Finding& f : r.findings) rules.insert(f.rule);
  return rules;
}

int count_rule(const Report& r, const std::string& rule) {
  return static_cast<int>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(CoschedLint, GoodFixturesAreClean) {
  const Report r = lint_dir("good");
  for (const Finding& f : r.findings) ADD_FAILURE() << to_string(f);
  EXPECT_TRUE(r.findings.empty());
}

TEST(CoschedLint, GoodFixturesCountWaivers) {
  const Report r = lint_dir("good");
  // ordered() waivers: the two sort-before-emit sites in unordered.cpp.
  EXPECT_EQ(r.ordered_waivers_used, 2);
  // allow() waivers: start_job's journal waiver, the wall-clock banner and
  // the test-only lease reset.
  EXPECT_EQ(r.allow_waivers_used, 3);
  EXPECT_EQ(static_cast<int>(r.waived.size()),
            r.ordered_waivers_used + r.allow_waivers_used);
}

TEST(CoschedLint, BadFixturesAreAllFlagged) {
  const Report r = lint_dir("bad");
  const std::set<std::string> expected = {
      "journal-before-mutate", "lease-journal",      "dedup-before-reply",
      "banned-call",           "unordered-iter",     "journal-coverage",
      "dispatch-exhaustiveness", "lock-order"};
  EXPECT_EQ(rules_hit(r), expected);
}

TEST(CoschedLint, BadJournalFindingPointsAtMutation) {
  const Report r = lint_dir("bad");
  // kill_job forgets the kKill record; gang_victim releases the hold with no
  // record — the rule must name each method and its mutator.
  ASSERT_EQ(count_rule(r, "journal-before-mutate"), 2);
  std::set<std::string> methods;
  for (const Finding& f : r.findings) {
    if (f.rule != "journal-before-mutate") continue;
    EXPECT_NE(f.file.find("cluster.cpp"), std::string::npos);
    if (f.message.find("kill_job") != std::string::npos) {
      EXPECT_NE(f.message.find("sched_.kill"), std::string::npos);
      methods.insert("kill_job");
    }
    if (f.message.find("gang_victim") != std::string::npos) {
      EXPECT_NE(f.message.find("sched_.release_hold"), std::string::npos);
      methods.insert("gang_victim");
    }
  }
  EXPECT_EQ(methods, (std::set<std::string>{"kill_job", "gang_victim"}));
}

TEST(CoschedLint, BadLeaseFindingsCatchMissingAndLateAppends) {
  const Report r = lint_dir("bad");
  // expire_lease has no append at all; grant_lease appends only *after* the
  // table write — the ordered rule must flag both.
  ASSERT_EQ(count_rule(r, "lease-journal"), 2);
  std::set<std::string> methods;
  for (const Finding& f : r.findings) {
    if (f.rule != "lease-journal") continue;
    EXPECT_NE(f.file.find("cluster.cpp"), std::string::npos);
    if (f.message.find("expire_lease") != std::string::npos)
      methods.insert("expire_lease");
    if (f.message.find("grant_lease") != std::string::npos)
      methods.insert("grant_lease");
  }
  EXPECT_EQ(methods, (std::set<std::string>{"expire_lease", "grant_lease"}));
}

TEST(CoschedLint, LeaseRuleAcceptsWriteAheadOrderAndExemptsReplay) {
  // Append-before-mutation in the same body passes; the same mutation in an
  // apply_* replay method needs no append at all.
  const std::vector<SourceFile> files = {
      {"fake/core/cluster.cpp",
       {"void Cluster::expire_lease(JobId job) {",
        "  journal_->append(JournalRecordKind::kLeaseExpire, w.bytes());",
        "  leases_.erase(job);", "}",
        "void Cluster::apply_snapshot(const Snapshot& s) {",
        "  leases_.clear();", "}"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());
}

TEST(CoschedLint, BadDedupFindingOnEffectfulCall) {
  const Report r = lint_dir("bad");
  // try_start_mate and the gang_victim dispatch both reply unrecorded.
  EXPECT_EQ(count_rule(r, "dedup-before-reply"), 2);
}

TEST(CoschedLint, GangDispatchCountsAsEffectful) {
  // Any service_.gang_*( call is side-effecting: a reply without a dedup
  // record must be flagged, and record-before-reply must pass.
  const std::vector<SourceFile> bad = {
      {"fake/proto/service.cpp",
       {"case MsgType::kGangPrepareReq: {",
        "  const bool ok = service_.gang_prepare(req.job, req.group);",
        "  return finish(make_gang_prepare_resp(req.request_id, ok));",
        "}"}}};
  EXPECT_EQ(count_rule(run_lint(bad), "dedup-before-reply"), 1);
  const std::vector<SourceFile> good = {
      {"fake/proto/service.cpp",
       {"case MsgType::kGangAbortReq: {",
        "  const bool ok = service_.gang_abort(req.job, req.group);",
        "  config_.dedup->record(req.incarnation, req.request_id, req.type,",
        "                        ok);",
        "  return finish(make_gang_abort_resp(req.request_id, ok));",
        "}"}}};
  EXPECT_EQ(count_rule(run_lint(good), "dedup-before-reply"), 0);
}

TEST(CoschedLint, BadBannedCallsAllCaught) {
  const Report r = lint_dir("bad");
  // system_clock, srand, rand, time(nullptr) — four separate lines.
  EXPECT_EQ(count_rule(r, "banned-call"), 4);
}

TEST(CoschedLint, BadUnorderedBothForms) {
  const Report r = lint_dir("bad");
  // One range-for and one .begin() iterator range.
  EXPECT_EQ(count_rule(r, "unordered-iter"), 2);
}

TEST(CoschedLint, WholeFixtureTreeSeparatesGoodFromBad) {
  // Good and bad scanned together: declarations must not bleed between
  // same-stem files in a way that flags the good ones.
  const Report r = lint_dir("");
  for (const Finding& f : r.findings)
    EXPECT_NE(f.file.find("/bad/"), std::string::npos) << to_string(f);
}

TEST(CoschedLint, CodeViewStripsCommentsAndStrings) {
  const std::vector<SourceFile> files = {
      {"fake/core/strings.cpp",
       {"const char* msg = \"call rand() and system_clock\";",
        "// a comment mentioning srand and time(nullptr)"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());
}

TEST(CoschedLint, BannedCallScopedToDeterministicDirs) {
  const std::vector<SourceFile> files = {
      {"fake/net/wallclock.cpp",
       {"long t = std::chrono::system_clock::now().time_since_epoch()"
        ".count();"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());  // net/ may read wall clocks
}

TEST(CoschedLint, AmbiguousAccessorNameIsSkipped) {
  // jobs() returns an unordered_map on one class and a vector on another
  // (Scheduler vs Trace in the real tree).  A textual matcher cannot tell
  // the receivers apart, so the name must be skipped, not flagged.
  const std::vector<SourceFile> files = {
      {"fake/sched/tables.h",
       {"const std::unordered_map<long, long>& jobs() const { return j_; }"}},
      {"fake/workload/trace.h",
       {"const std::vector<long>& jobs() const { return v_; }"}},
      {"fake/core/use.cpp", {"for (const auto& j : trace.jobs()) {"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());
}

TEST(CoschedLint, AccessorIterationNeedsWaiver) {
  const std::vector<SourceFile> files = {
      {"fake/core/tables.h",
       {"const std::unordered_map<long, long>& jobs() const { return j_; }"}},
      {"fake/core/use.cpp", {"for (const auto& [id, j] : sched_.jobs()) {"}}};
  const Report r = run_lint(files);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "unordered-iter");
}

// -- cross-file analyses (v2) ------------------------------------------------

TEST(CoschedLint, BadJournalKindsMissReplayAndSnapshot) {
  const Report r = lint_dir("bad");
  // kDeltaNote's replay arm was deleted; kGammaMark's replay arm rebuilds
  // gamma_seen_, which the snapshot pair never carries; snapshot_commit.h
  // adds the uncommitted-compaction hit (checked in its own test below).
  ASSERT_EQ(count_rule(r, "journal-coverage"), 3);
  std::set<std::string> hits;
  for (const Finding& f : r.findings) {
    if (f.rule != "journal-coverage") continue;
    if (f.file.find("snapshot_commit.h") != std::string::npos) continue;
    EXPECT_NE(f.file.find("journal_kinds.h"), std::string::npos);
    if (f.message.find("'kDeltaNote'") != std::string::npos &&
        f.message.find("no replay case") != std::string::npos)
      hits.insert("missing-replay");
    if (f.message.find("'gamma_seen_'") != std::string::npos)
      hits.insert("missing-snapshot");
  }
  EXPECT_EQ(hits,
            (std::set<std::string>{"missing-replay", "missing-snapshot"}));
}

TEST(CoschedLint, BadSnapshotGenerationWithoutCommitIsFlagged) {
  const Report r = lint_dir("bad");
  // roll_generation compacts around a fresh snapshot with no commit first —
  // buffered records would be spliced out of the durable image.
  bool found = false;
  for (const Finding& f : r.findings) {
    if (f.rule != "journal-coverage" ||
        f.file.find("snapshot_commit.h") == std::string::npos)
      continue;
    found = true;
    EXPECT_NE(f.message.find("roll_generation"), std::string::npos);
    EXPECT_NE(f.message.find("without committing"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(CoschedLint, CommitBeforeCompactAndLadderShapesPass) {
  // Commit-before-compact is the good shape; set_journal (initial attach)
  // and emergency_compact (the ENOSPC ladder) are exempt by name.
  const std::vector<SourceFile> files = {
      {"fake/core/keeper.cpp",
       {"void Keeper::journal_commit() {",
        "  journal_->commit();",
        "  WireWriter snap;",
        "  write_snapshot(snap);",
        "  journal_->compact(snap.bytes());",
        "}",
        "void Keeper::set_journal(Journal* j) {",
        "  WireWriter snap;",
        "  write_snapshot(snap);",
        "  journal_->compact(snap.bytes());",
        "}",
        "void Keeper::emergency_compact() {",
        "  WireWriter snap;",
        "  write_snapshot(snap);",
        "  journal_->compact(snap.bytes());",
        "}"}}};
  EXPECT_EQ(count_rule(run_lint(files), "journal-coverage"), 0);
}

TEST(CoschedLint, JournalReplayArmDeletionIsCaught) {
  // Full coverage passes; removing exactly one replay arm must fail.
  const std::vector<std::string> full = {
      "enum class JournalRecordKind { kOneMark = 1, kTwoMark = 2 };",
      "void Box::save() {",
      "  journal_->append(JournalRecordKind::kOneMark, b);",
      "  journal_->append(JournalRecordKind::kTwoMark, b);",
      "}",
      "void Box::apply_record(const Record& r) {",
      "  switch (r.kind) {",
      "    case JournalRecordKind::kOneMark: break;",
      "    case JournalRecordKind::kTwoMark: break;",
      "  }",
      "}"};
  EXPECT_EQ(count_rule(run_lint({{"fake/core/box.cpp", full}}),
                       "journal-coverage"),
            0);
  std::vector<std::string> missing = full;
  missing.erase(missing.begin() + 8);  // drop the kTwoMark replay arm
  const Report r = run_lint({{"fake/core/box.cpp", missing}});
  ASSERT_EQ(count_rule(r, "journal-coverage"), 1);
  EXPECT_NE(r.findings[0].message.find("'kTwoMark'"), std::string::npos);
}

TEST(CoschedLint, BadDispatchLeakFindsMissingArmAndUnrecordedHelper) {
  const Report r = lint_dir("bad");
  ASSERT_EQ(count_rule(r, "dispatch-exhaustiveness"), 2);
  std::set<std::string> hits;
  for (const Finding& f : r.findings) {
    if (f.rule != "dispatch-exhaustiveness") continue;
    EXPECT_NE(f.file.find("dispatch_leak.h"), std::string::npos);
    if (f.message.find("'kProdReq'") != std::string::npos)
      hits.insert("missing-arm");
    if (f.message.find("'handle_zap'") != std::string::npos)
      hits.insert("unrecorded-helper");
  }
  EXPECT_EQ(hits,
            (std::set<std::string>{"missing-arm", "unrecorded-helper"}));
}

TEST(CoschedLint, DispatchArmDeletionIsCaught) {
  // Both request arms present passes; removing exactly one must fail.
  const std::vector<std::string> full = {
      "enum class MsgType { kAReq = 1, kAResp = 2, kBReq = 3, kBResp = 4 };",
      "Bytes Hub::dispatch(const Message& m) {",
      "  switch (m.type) {",
      "    case MsgType::kAReq: return reply_a(m);",
      "    case MsgType::kBReq: return reply_b(m);",
      "  }",
      "}"};
  EXPECT_EQ(count_rule(run_lint({{"fake/proto/hub.cpp", full}}),
                       "dispatch-exhaustiveness"),
            0);
  std::vector<std::string> missing = full;
  missing.erase(missing.begin() + 4);  // drop the kBReq arm
  const Report r = run_lint({{"fake/proto/hub.cpp", missing}});
  ASSERT_EQ(count_rule(r, "dispatch-exhaustiveness"), 1);
  EXPECT_NE(r.findings[0].message.find("'kBReq'"), std::string::npos);
}

TEST(CoschedLint, BadLockInversionIsACycle) {
  const Report r = lint_dir("bad");
  ASSERT_EQ(count_rule(r, "lock-order"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule != "lock-order") continue;
    EXPECT_NE(f.file.find("locks_inverted.h"), std::string::npos);
    EXPECT_NE(f.message.find("Inverted::head_mu_"), std::string::npos);
    EXPECT_NE(f.message.find("Inverted::tail_mu_"), std::string::npos);
  }
}

TEST(CoschedLint, JsonReportParsesAndIsStable) {
  const Report r = lint_dir("bad");
  const std::string a = to_json(r);
  const std::string b = to_json(lint_dir("bad"));
  EXPECT_EQ(a, b);  // byte-stable across identical runs
  for (const char* key :
       {"\"files_scanned\"", "\"findings\"", "\"waived\"",
        "\"unused_waivers\"", "\"rules\"", "\"lock-order\"",
        "\"journal-coverage\"", "\"dispatch-exhaustiveness\""})
    EXPECT_NE(a.find(key), std::string::npos) << key;
  // Balanced braces/brackets outside strings — cheap structural parse.
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char c = a[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

TEST(CoschedLint, UnusedWaiverIsReported) {
  const std::vector<SourceFile> files = {
      {"fake/core/tidy.cpp",
       {"// cosched-lint: allow(banned-call) left over from a deleted line",
        "int x = 1;"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.unused_waivers.size(), 1u);
  EXPECT_EQ(r.unused_waivers[0].rule, "unused-waiver");
  EXPECT_EQ(r.unused_waivers[0].line, 1);
}

}  // namespace
}  // namespace cosched::lint
