// Output of one benchmark run: metric lines, the machine block and the
// final JSON result line.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of `v` (the mean of the middle two for an even count).
double median(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// True when the benchmark was compiled with optimization.
bool optimized_build();

/// {"cpus":..,"compiler":..,"build_type":..,"optimized":..,"scale":..,
///  "seed":..,"seed_pinned":..}
std::string machine_json(double scale, std::uint64_t seed, bool seed_pinned);

/// One "name  value unit" line per metric.
void print_table(std::ostream& out, const std::vector<Metric>& metrics);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
void print_result(std::ostream& out, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics);

/// A JSON string literal for `s`.
std::string json_string(const std::string& s);

}  // namespace perfbench
