#include "pins.h"

#include <iomanip>
#include <sstream>

#include "util/error.h"

namespace perfbench {

std::string PinTable::scale_key(double scale) {
  std::ostringstream o;
  o << std::setprecision(6) << scale;
  return o.str();
}

void PinTable::read(std::istream& in) {
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string month, scale, fingerprint;
    std::uint64_t seed = 0;
    cosched::Time end = 0;
    if (!std::getline(fields, month, '\t') || !(fields >> seed) ||
        !(fields >> scale) || !(fields >> fingerprint) || !(fields >> end))
      throw cosched::Error("pins line " + std::to_string(line_no) +
                           ": expected month, seed, scale, fingerprint, end");
    std::size_t used = 0;
    const std::uint64_t fp = std::stoull(fingerprint, &used, 16);
    if (used != fingerprint.size())
      throw cosched::Error("pins line " + std::to_string(line_no) +
                           ": bad fingerprint " + fingerprint);
    pins_[Key{month, seed, scale}] = Pin{fp, end};
  }
}

void PinTable::write(std::ostream& out) const {
  out << "# month\tseed\tscale\tdeterminism_fingerprint\tend_time\n";
  for (const auto& [key, pin] : pins_)
    out << std::get<0>(key) << '\t' << std::get<1>(key) << '\t'
        << std::get<2>(key) << '\t' << std::hex << std::setw(16)
        << std::setfill('0') << pin.fingerprint << std::dec
        << std::setfill(' ') << '\t' << pin.end_time << '\n';
}

void PinTable::set(const std::string& month, std::uint64_t seed, double scale,
                   Pin pin) {
  pins_[Key{month, seed, scale_key(scale)}] = pin;
}

std::optional<Pin> PinTable::find(const std::string& month,
                                  std::uint64_t seed, double scale) const {
  const auto it = pins_.find(Key{month, seed, scale_key(scale)});
  if (it == pins_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> month_failure(const MonthResult& r,
                                         const std::optional<Pin>& expected) {
  if (!r.completed) return "did not complete";
  if (!r.violations.empty())
    return "invariant violation: " + r.violations.front();
  if (expected && !(*expected == Pin{r.fingerprint, r.end_time})) {
    std::ostringstream o;
    o << "fingerprint " << std::hex << r.fingerprint << std::dec << " end "
      << r.end_time << " differs from expected " << std::hex
      << expected->fingerprint << std::dec << " end " << expected->end_time;
    return o.str();
  }
  return std::nullopt;
}

bool MonthJudge::operator()(const MonthResult& r) {
  ++attempted_;
  std::optional<Pin> expected = pins_.find(r.label, r.seed, scale_);
  if (!expected) {
    all_pinned_ = false;
    const auto [it, fresh] =
        first_outcome_.emplace(r.label, Pin{r.fingerprint, r.end_time});
    if (!fresh) expected = it->second;
  }
  const auto why = month_failure(r, expected);
  if (why) {
    ++failed_;
    problems_.push_back(r.label + ": " + *why);
  }
  return !why;
}

}  // namespace perfbench
