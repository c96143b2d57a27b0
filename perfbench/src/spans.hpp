#pragma once

/// \file spans.hpp
/// \brief In-memory span recorder for the traced run.
///
/// A span is one timed call into a layer: name, start, end, the span that
/// caused it (parent) and the query it belongs to. Spans are recorded by
/// the benchmark around the library's public calls — the library itself
/// carries no instrumentation. They stay in memory and are written out
/// once, at exit. A span's self time is its duration minus the part of its
/// interval covered by its children.
///
/// One recorder per thread; a disabled recorder records nothing and never
/// reads the clock.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

inline constexpr uint64_t kNoQuery = UINT64_MAX;

struct Span {
  uint32_t name = 0;  ///< Index into SpanRecorder::names().
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< Index of the enclosing span, -1 for a root.
  uint64_t query = kNoQuery;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent's own interval).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const uint64_t dur = p.end_ns - p.start_ns;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int32_t Begin(const char* name, uint64_t query = kNoQuery) {
    if (!enabled_) return -1;
    Span s;
    s.name = Intern(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.query = query;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes span \p idx (must be the innermost open span); returns its
  /// duration in ns (0 when disabled).
  uint64_t End(int32_t idx) {
    if (idx < 0) return 0;
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = NowNs();
    open_.pop_back();
    return s.end_ns - s.start_ns;
  }

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, uint64_t query = kNoQuery)
        : rec_(rec), idx_(rec.Begin(name, query)) {}
    ~Scope() { rec_.End(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int32_t idx_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Total and self time per span name, in ms, on stderr.
  void PrintSummary() const {
    if (!enabled_) return;
    const std::vector<uint64_t> self = SelfTimes(spans_);
    struct Agg {
      uint64_t count = 0;
      uint64_t total = 0;
      uint64_t self = 0;
    };
    std::map<std::string, Agg> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Agg& a = by_name[names_[spans_[i].name]];
      ++a.count;
      a.total += spans_[i].end_ns - spans_[i].start_ns;
      a.self += self[i];
    }
    Note("%-28s %10s %12s %12s", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, a] : by_name) {
      Note("%-28s %10llu %12.3f %12.3f", name.c_str(),
           static_cast<unsigned long long>(a.count),
           static_cast<double>(a.total) * 1e-6,
           static_cast<double>(a.self) * 1e-6);
    }
  }

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const {
    if (!enabled_) return true;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<uint64_t> self = SelfTimes(spans_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                   "\"end_ns\": %llu, \"self_ns\": %llu, \"parent\": %d, "
                   "\"query\": %lld}\n",
                   i, names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(self[i]), s.parent,
                   s.query == kNoQuery ? -1LL : static_cast<long long>(s.query));
    }
    return std::fclose(f) == 0;
  }

 private:
  /// Names are string literals, so they are interned by address (a
  /// literal repeated across translation units just gets two ids; the
  /// summary and the file both aggregate by the text).
  uint32_t Intern(const char* name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.emplace_back(name);
    const auto id = static_cast<uint32_t>(names_.size() - 1);
    ids_.emplace(name, id);
    return id;
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<std::string> names_;
  std::map<const char*, uint32_t> ids_;
};

}  // namespace perfbench
