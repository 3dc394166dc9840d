#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common.h"
#include "dphist/obs/export.h"

namespace perfbench {

std::uint32_t Trace::Intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::uint32_t Trace::Add(std::string_view name, std::uint32_t parent,
                         std::uint64_t request, std::int64_t start_ns,
                         std::int64_t end_ns, std::uint32_t calls) {
  Span span;
  span.name = Intern(name);
  span.parent = parent;
  span.calls = calls;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  self_valid_ = false;
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t Trace::Begin(std::string_view name, std::uint32_t parent,
                           std::uint64_t request) {
  const std::int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void Trace::End(std::uint32_t id) {
  spans_[id - 1].end_ns = NowNs();
  self_valid_ = false;
}

const std::vector<std::int64_t>& Trace::SelfTimes() const {
  if (self_valid_) {
    return self_;
  }
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  self_.assign(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self_[i] = (span.end_ns - span.start_ns) - covered;
  }
  self_valid_ = true;
  return self_;
}

std::size_t Trace::Count(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) {
    return 0;
  }
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& span) { return span.name == it->second; }));
}

dphist::Status Trace::Write(const std::string& path,
                            const std::vector<std::string>& head,
                            const std::vector<std::string>& tail,
                            std::string_view capped,
                            std::size_t max_named) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return dphist::Status::Internal("cannot write trace file " + path);
  }
  for (const std::string& line : head) {
    out << line << '\n';
  }
  const std::vector<std::int64_t>& self = SelfTimes();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::size_t named = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (names_[span.name] == capped && named++ >= max_named) {
      continue;
    }
    dphist::obs::JsonObjectWriter line;
    line.Str("type", "span")
        .Int("id", i + 1)
        .Str("name", names_[span.name])
        .Int("parent", span.parent)
        .Num("start_us", static_cast<double>(span.start_ns - origin) * 1e-3)
        .Num("end_us", static_cast<double>(span.end_ns - origin) * 1e-3)
        .Num("self_us", static_cast<double>(self[i]) * 1e-3)
        .Int("calls", span.calls);
    if (span.request != kNoRequest) {
      line.Int("request", span.request);
    }
    out << line.Finish() << '\n';
  }
  for (const std::string& line : tail) {
    out << line << '\n';
  }
  out.flush();
  if (!out) {
    return dphist::Status::Internal("write failed: " + path);
  }
  return dphist::Status::Ok();
}

}  // namespace perfbench
