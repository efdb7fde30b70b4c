// Finished-job archive, kept in the bytes a scheduler snapshot writes.
//
// Once a job finishes (or is killed) nothing about it changes again, yet a
// journaled run snapshots the scheduler every few thousand records.  So a
// finished job is encoded exactly once, when it is archived, as its snapshot
// row; the rows sit back to back in ascending id order, and a snapshot
// copies the whole section with one put_bytes.  Lookups decode a row on
// demand: only dependency checks, mate-status queries and end-of-run
// metrics ever read a finished job.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "proto/wire.h"
#include "sched/runtime_job.h"
#include "util/types.h"

namespace cosched {

/// One job's snapshot row: its spec, then every RuntimeJob field.
void encode_job_row(WireWriter& w, const RuntimeJob& job);
/// Decodes a row; throws InvariantError on an out-of-range state byte.
RuntimeJob decode_job_row(WireReader& r);

class FinishedJobs {
 public:
  /// Encodes `job` (which must be finished) as its row and files it in id
  /// order.  Finishes arrive nearly in id order, so the row lands at or
  /// near the tail.  Throws InvariantError on a duplicate id.
  void insert(const RuntimeJob& job);

  bool contains(JobId id) const;
  /// Decodes the job's row; nullopt when `id` is not finished.
  std::optional<RuntimeJob> find(JobId id) const;

  std::size_t size() const { return ids_.size(); }
  /// Every row, ascending by id: the finished section of a snapshot.
  std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// Applies `fn(job)` to every finished job in ascending-id order.
  template <class F>
  void for_each(F&& fn) const {
    WireReader r(bytes_);
    for (std::size_t i = 0; i < ids_.size(); ++i) fn(decode_job_row(r));
  }

  void clear();

 private:
  std::vector<std::uint8_t> bytes_;   ///< rows, back to back
  std::vector<JobId> ids_;            ///< ascending
  std::vector<std::size_t> offsets_;  ///< row i starts at offsets_[i]
};

}  // namespace cosched
