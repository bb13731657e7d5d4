#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<double> Tracer::self_seconds() const {
  const std::size_t n = spans_.size();
  std::vector<std::vector<std::uint32_t>> children(n);
  for (std::size_t i = 0; i < n; ++i)
    if (spans_[i].parent != 0)
      children[spans_[i].parent - 1].push_back(static_cast<std::uint32_t>(i));

  std::vector<double> self(n, 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (const std::uint32_t c : children[i])
      cover.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                         std::min(spans_[c].end_ns, s.end_ns));
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::self_seconds_by_name()
    const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name].push_back(self[i]);
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"span\": %zu, \"parent\": %u}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id), i + 1, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
