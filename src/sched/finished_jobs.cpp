#include "sched/finished_jobs.h"

#include <algorithm>

#include "proto/message.h"
#include "util/error.h"

namespace cosched {

void encode_job_row(WireWriter& w, const RuntimeJob& j) {
  encode_job_spec(w, j.spec);
  w.put_u8(static_cast<std::uint8_t>(j.state));
  w.put_i64(j.start);
  w.put_i64(j.end);
  w.put_i64(j.first_ready);
  w.put_i64(j.hold_since);
  w.put_i64(j.allocated);
  w.put_i64(j.yield_count);
  w.put_i64(j.forced_releases);
  w.put_bool(j.demoted);
  w.put_double(j.priority_boost);
}

RuntimeJob decode_job_row(WireReader& r) {
  RuntimeJob j;
  j.spec = decode_job_spec(r);
  const std::uint8_t s = r.get_u8();
  COSCHED_CHECK_MSG(s <= static_cast<std::uint8_t>(JobState::kFinished),
                    "snapshot: bad job state " << int(s));
  j.state = static_cast<JobState>(s);
  j.start = r.get_i64();
  j.end = r.get_i64();
  j.first_ready = r.get_i64();
  j.hold_since = r.get_i64();
  j.allocated = r.get_i64();
  j.yield_count = static_cast<int>(r.get_i64());
  j.forced_releases = static_cast<int>(r.get_i64());
  j.demoted = r.get_bool();
  j.priority_boost = r.get_double();
  return j;
}

void FinishedJobs::insert(const RuntimeJob& job) {
  const JobId id = job.spec.id;
  COSCHED_CHECK_MSG(job.state == JobState::kFinished,
                    "job " << id << " archived while "
                           << to_string(job.state));
  const auto at = std::upper_bound(ids_.begin(), ids_.end(), id);
  COSCHED_CHECK_MSG(at == ids_.begin() || *(at - 1) != id,
                    "job " << id << " finished twice");
  const std::size_t tail = bytes_.size();
  // Append the row; when larger ids are already filed, shift their rows
  // up (one memmove) and move the new row in front of them.
  WireWriter w(std::move(bytes_));
  encode_job_row(w, job);
  bytes_ = w.take();
  const auto i = static_cast<std::size_t>(at - ids_.begin());
  if (i == ids_.size()) {
    ids_.push_back(id);
    offsets_.push_back(tail);
    return;
  }
  const std::size_t off = offsets_[i];
  const std::size_t len = bytes_.size() - tail;
  const std::vector<std::uint8_t> row(bytes_.begin() + tail, bytes_.end());
  std::move_backward(bytes_.begin() + off, bytes_.begin() + tail,
                     bytes_.end());
  std::copy(row.begin(), row.end(), bytes_.begin() + off);
  ids_.insert(at, id);
  offsets_.insert(offsets_.begin() + i, off);
  for (std::size_t k = i + 1; k < offsets_.size(); ++k) offsets_[k] += len;
}

bool FinishedJobs::contains(JobId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

std::optional<RuntimeJob> FinishedJobs::find(JobId id) const {
  const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (at == ids_.end() || *at != id) return std::nullopt;
  const auto i = static_cast<std::size_t>(at - ids_.begin());
  const std::size_t end = i + 1 < offsets_.size() ? offsets_[i + 1]
                                                  : bytes_.size();
  WireReader r(std::span<const std::uint8_t>(bytes_).subspan(
      offsets_[i], end - offsets_[i]));
  return decode_job_row(r);
}

void FinishedJobs::clear() {
  bytes_.clear();
  ids_.clear();
  offsets_.clear();
}

}  // namespace cosched
