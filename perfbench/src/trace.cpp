#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::intern(std::string_view name) {
  const std::uint32_t found = find(name);
  if (found != Span::kRoot) return found;
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  return Span::kRoot;
}

std::uint32_t Tracer::add(std::uint32_t name, std::uint32_t parent,
                          std::uint64_t id, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (!has_room(1)) return Span::kRoot;
  spans_.push_back(Span{name, parent, id, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  const std::uint32_t n = find(name);
  for (const Span& s : spans_) {
    if (s.name == n) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  return out;
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  const std::uint32_t n = find(name);
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint32_t p = spans_[i].parent;
    if (p != Span::kRoot && spans_[p].name == n) {
      children[p].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != n) continue;
    // Union of the children's intervals, clipped to this span.
    cover.clear();
    for (const std::uint32_t c : children[i]) {
      const std::int64_t a = std::max(spans_[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans_[c].end_ns, s.end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  bool ok = true;
  for (std::size_t i = 0; i < spans_.size() && ok; ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == Span::kRoot ? -1 : static_cast<long long>(s.parent);
    ok = std::fprintf(f,
                      "{\"span\":%zu,\"name\":\"%s\",\"id\":%llu,"
                      "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                      i, names_[s.name].c_str(),
                      static_cast<unsigned long long>(s.id), parent,
                      static_cast<long long>(s.start_ns - t0),
                      static_cast<long long>(s.end_ns - t0)) > 0;
  }
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("failed writing spans to " + path);
  }
}

namespace {

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, q);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double drain_median(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  const double m = sorted_quantile(values, 0.5);
  values.clear();
  return m;
}

}  // namespace perfbench
