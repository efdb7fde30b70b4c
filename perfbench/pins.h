// Pinned outcomes of the benchmark's months: for each (month, seed, scale),
// the determinism_fingerprint and the simulated end time of a correct run.
// A month that completes but misses its pin counts as failed.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "months.h"
#include "util/types.h"

namespace perfbench {

struct Pin {
  std::uint64_t fingerprint = 0;
  cosched::Time end_time = 0;
  bool operator==(const Pin&) const = default;
};

class PinTable {
 public:
  /// Reads lines of "month<TAB>seed<TAB>scale<TAB>fingerprint-hex<TAB>end"
  /// ('#' starts a comment).  Throws cosched::Error on a malformed line.
  void read(std::istream& in);
  void write(std::ostream& out) const;

  void set(const std::string& month, std::uint64_t seed, double scale,
           Pin pin);
  std::optional<Pin> find(const std::string& month, std::uint64_t seed,
                          double scale) const;

 private:
  using Key = std::tuple<std::string, std::uint64_t, std::string>;
  static std::string scale_key(double scale);
  std::map<Key, Pin> pins_;
};

/// Why a month failed — it did not complete, reported an invariant
/// violation, or missed `expected` — or nullopt when it passed.  Without a
/// pin, `expected` is the same month's outcome from the run's first pass.
std::optional<std::string> month_failure(const MonthResult& result,
                                         const std::optional<Pin>& expected);

/// Judges each month of a run against the pins and counts the failures.
class MonthJudge {
 public:
  MonthJudge(const PinTable& pins, double scale) : pins_(pins), scale_(scale) {}

  /// Judges one month; true when it passed.
  bool operator()(const MonthResult& result);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Every month judged so far had a pin.
  bool all_pinned() const { return all_pinned_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  const PinTable& pins_;
  double scale_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool all_pinned_ = true;
  std::vector<std::string> problems_;
  /// Unpinned months: the first pass's outcome is the reference.
  std::map<std::string, Pin> first_outcome_;
};

}  // namespace perfbench
