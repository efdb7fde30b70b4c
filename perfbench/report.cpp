#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string machine_json(double scale, std::uint64_t seed, bool seed_pinned) {
  std::ostringstream o;
  o << "{\"cpus\":" << std::max(1u, std::thread::hardware_concurrency())
    << ",\"compiler\":" << json_string(compiler())
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
    << ",\"optimized\":" << (optimized_build() ? "true" : "false")
    << ",\"scale\":" << number(scale) << ",\"seed\":" << seed
    << ",\"seed_pinned\":" << (seed_pinned ? "true" : "false") << "}";
  return o.str();
}

void print_table(std::ostream& out, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    out << "  " << std::left << std::setw(34) << m.name << std::right
        << std::setw(22) << number(m.value) << ' ' << m.unit << '\n';
}

void print_result(std::ostream& out, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  out << "}}" << std::endl;
}

}  // namespace perfbench
