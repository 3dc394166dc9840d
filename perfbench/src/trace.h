// In-memory span recorder of the traced run. Spans are kept in memory
// while the run measures and written out as JSON lines when it ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dphist/common/status.h"

namespace perfbench {

class Trace {
 public:
  /// Request id of a span that belongs to no single request.
  static constexpr std::uint64_t kNoRequest = ~0ULL;

  struct Span {
    std::uint32_t name = 0;
    /// Id of the enclosing span; 0 for a root.
    std::uint32_t parent = 0;
    std::uint32_t calls = 1;
    std::uint64_t request = kNoRequest;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Reserves room for `spans` spans, so recording does not reallocate.
  void Reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Records a finished span; returns its id (>= 1). A span that wraps
  /// `calls` repetitions of one call says so, so per-call time is its self
  /// time divided by `calls`.
  std::uint32_t Add(std::string_view name, std::uint32_t parent,
                    std::uint64_t request, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t calls = 1);

  /// Opens a span now; close it with End.
  std::uint32_t Begin(std::string_view name, std::uint32_t parent,
                      std::uint64_t request);
  void End(std::uint32_t id);

  /// Self time of every span: its duration minus the part of its interval
  /// its child spans cover (overlapping children are merged). Indexed by
  /// span id - 1.
  const std::vector<std::int64_t>& SelfTimes() const;

  /// Writes a JSON-lines file: `head` lines first, then every span (at
  /// most `max_named` spans of name `capped`, the rest counted in the
  /// header of the file by the caller), then `tail` lines.
  dphist::Status Write(const std::string& path,
                       const std::vector<std::string>& head,
                       const std::vector<std::string>& tail,
                       std::string_view capped, std::size_t max_named) const;

  std::size_t size() const { return spans_.size(); }
  std::size_t Count(std::string_view name) const;

 private:
  std::uint32_t Intern(std::string_view name);

  std::vector<Span> spans_;
  /// SelfTimes() memo, valid while `self_valid_`.
  mutable std::vector<std::int64_t> self_;
  mutable bool self_valid_ = false;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
