#pragma once

/// \file report.hpp
/// \brief The benchmark's result sheet: the metric catalog (names, units),
/// the statistics every timing is reduced with, the correctness tally and
/// the one-line JSON result a caller reads.
///
/// Every end-to-end metric is measured on every workload. Per-layer metrics
/// are emitted on every workload too; a layer the workload bypasses reports
/// 0 (like a cache-hit counter on a workload that never hits the cache).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- clocks and memory -------------------------------------------------------

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Peak resident set (VmHWM) in bytes; 0 where /proc is unavailable.
inline size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS (Linux >= 4.0), so a later peak delta
/// measures only what ran after the reset. False where unsupported.
inline bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  return clear.good();
}

// --- statistics --------------------------------------------------------------

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Geometric mean of positive values (0 if any value is not positive).
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The tail percentile a sample of \p n supports: the highest of
/// {99.9, 99, 95, 90, 75} that leaves at least 10 samples beyond it, or
/// the median when even p75 would not.
inline double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

/// Nearest-rank percentile \p p of \p v: the smallest sample with at least
/// p% of the samples at or below it. Exactly n - ceil(p n / 100) samples
/// lie beyond it.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Samples strictly beyond the nearest-rank percentile \p p of \p n.
inline size_t SamplesBeyond(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return n - std::min(n, static_cast<size_t>(std::max(1.0, rank)));
}

// --- host speed --------------------------------------------------------------

/// Calibration of the host's current speed. On a shared virtual machine the
/// same code runs up to ~70% faster or slower from one minute to the next,
/// far beyond any change worth measuring. A fixed kernel that does not touch
/// the library — a dependent pointer chase through 16 MB, an integer mixing
/// loop and a sort of 200k integers — is timed between the workload's
/// rounds, and the run's end-to-end timings are scaled to a reference
/// speed: a time t is reported as t * kReferenceMs / calibration_ms, a rate
/// r as r * calibration_ms / kReferenceMs, with calibration_ms the median
/// over the run's samples. A change to the library moves the scaled figures
/// exactly as it moves the raw ones; the raw ones are printed on stderr.
class HostSpeed {
 public:
  /// The kernel's time on the machine the reference figures were taken on
  /// (a 4-vCPU Xeon VM); only the scale of the reported numbers depends on
  /// it.
  static constexpr double kReferenceMs = 45.0;

  HostSpeed() : next_(kChaseEntries) {
    // Sattolo's shuffle: one cycle through every entry, fixed seed.
    for (uint32_t i = 0; i < kChaseEntries; ++i) next_[i] = i;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t i = kChaseEntries - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const auto j = static_cast<uint32_t>((x >> 33) % i);
      std::swap(next_[i], next_[j]);
    }
  }

  /// Times the kernel once.
  void Sample() {
    const uint64_t t0 = NowNs();
    uint32_t p = 0;
    for (uint32_t i = 0; i < kChaseSteps; ++i) p = next_[p];
    uint64_t h = p;
    for (uint32_t i = 0; i < kMixSteps; ++i) {
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ull;
      h += i;
    }
    sort_buf_.resize(kSortEntries);
    uint64_t x = h;
    for (uint32_t& v : sort_buf_) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<uint32_t>(x >> 32);
    }
    std::sort(sort_buf_.begin(), sort_buf_.end());
    samples_ms_.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    sink_ += sort_buf_[kSortEntries / 2];
  }

  double calibration_ms() const { return Median(samples_ms_); }
  size_t samples() const { return samples_ms_.size(); }
  /// Factor that scales a measured time to the reference speed.
  double time_scale() const { return kReferenceMs / calibration_ms(); }

 private:
  static constexpr uint32_t kChaseEntries = 1u << 22;  // 16 MB
  static constexpr uint32_t kChaseSteps = 150000;
  static constexpr uint32_t kMixSteps = 5000000;
  static constexpr uint32_t kSortEntries = 200000;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> sort_buf_;
  std::vector<double> samples_ms_;
  uint64_t sink_ = 0;  // keeps the kernel's result observable
};

// --- metric catalog ----------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"ok_frac", "frac"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

/// The (family, query kind) cells of the one-shot battery, in report order.
inline const std::vector<std::string>& CellNames() {
  static const std::vector<std::string> cells = {
      "dsi.window",   "dsi.knn",   "rtree.window",    "rtree.knn",
      "hci.window",   "hci.knn",   "expindex.window", "expindex.knn",
  };
  return cells;
}

inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        // Per-operation latency of the whole workload (scaled like the
        // end-to-end timings). Kept here, unbounded: on a drifting host it
        // spreads too much from run to run to serve as a regression bound.
        {"op_ms_p50", "ms"},
        {"op_ms_p95", "ms"},
        {"datasets.gen_s", "s"},
        {"dsi.build_s", "s"},
        {"rtree.build_s", "s"},
        {"hci.build_s", "s"},
        {"expindex.build_s", "s"},
        {"dsi.republish_s", "s"},
        {"broadcast.relayout_s", "s"},
        {"transport.source_build_s", "s"},
        {"hilbert.window_decomp_ns", "ns"},
        {"hilbert.circle_decomp_ns", "ns"},
        {"hilbert.ranges_per_window", "count"},
    };
    for (const std::string& cell : CellNames()) {
      d.push_back({cell + "_qps", "1/s"});
      d.push_back({cell + ".query_us_p50", "us"});
      d.push_back({cell + ".query_us_p99", "us"});
      d.push_back({cell + ".search_self_us", "us"});
      d.push_back({cell + ".session_self_us", "us"});
      d.push_back({cell + ".reads_per_query", "count"});
      d.push_back({cell + ".useful_read_frac", "frac"});
    }
    const std::vector<MetricDef> tail = {
        {"session.replay_ns_per_read", "ns"},
        {"session.resyncs_per_step", "count"},
        {"session.lost_reads_per_step", "count"},
        {"session.repairs_per_query", "count"},
        {"sim.parallel_efficiency", "frac"},
        {"sim.engine_ns_per_query", "ns"},
        {"sim.sched_ns_per_step", "ns"},
        {"sim.restarted_frac", "frac"},
        {"sim.skipped_steps", "count"},
        {"wire.content_ns_data", "ns"},
        {"wire.content_ns_parity", "ns"},
        {"wire.encode_frame_ns", "ns"},
        {"wire.decode_frame_ns", "ns"},
        {"wire.bytes_per_frame", "B"},
        {"transport.connect_ms", "ms"},
        {"transport.wait_frac", "frac"},
        {"transport.frames_per_query", "count"},
        {"city.rss_per_client_kb", "KB"},
        {"live.frames_per_s", "1/s"},
        {"trace.overhead_frac", "frac"},
        {"host.calibration_ms", "ms"},
    };
    d.insert(d.end(), tail.begin(), tail.end());
    return d;
  }();
  return defs;
}

// --- the result sheet --------------------------------------------------------

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// End-to-end timings and rates as measured; ScaleToReferenceSpeed turns
  /// them into the reported values.
  void SetTime(const std::string& name, double value) {
    raw_[name] = {value, true};
  }
  void SetRate(const std::string& name, double value) {
    raw_[name] = {value, false};
  }
  HostSpeed& host() { return host_; }

  /// Scales every SetTime/SetRate value by the run's host calibration (see
  /// HostSpeed) and prints the raw values on stderr.
  void ScaleToReferenceSpeed() {
    const double scale = host_.samples() > 0 ? host_.time_scale() : 1.0;
    std::fprintf(stderr,
                 "host calibration: %.3f ms (median of %zu), time scale %.4f; "
                 "raw:",
                 host_.calibration_ms(), host_.samples(), scale);
    for (const auto& [name, raw] : raw_) {
      values_[name] = raw.is_time ? raw.value * scale : raw.value / scale;
      std::fprintf(stderr, " %s=%.6g", name.c_str(), raw.value);
    }
    std::fprintf(stderr, "\n");
    values_["host.calibration_ms"] = host_.calibration_ms();
  }
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Operations executed (queries, steps), each subject to the checks.
  void Attempt(uint64_t n) { attempted_ += n; }
  /// A failed operation or check; \p what goes to stderr.
  void Fail(const std::string& what, uint64_t n = 1) {
    failed_ += n;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  double ok_frac() const {
    return attempted_ == 0 ? 0.0
                           : 1.0 - static_cast<double>(failed_) /
                                       static_cast<double>(attempted_);
  }

  /// The result line: every metric of \p defs, in catalog order.
  std::string Json(const std::vector<MetricDef>& defs) const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
      double v = Get(defs[i].name);
      if (!std::isfinite(v)) v = 0.0;
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + defs[i].name + "\": {\"value\": " + num +
             ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Raw {
    double value = 0;
    bool is_time = true;
  };
  std::map<std::string, double> values_;
  std::map<std::string, Raw> raw_;
  HostSpeed host_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Prints one informational line to stderr (callers read only the last
/// stdout line).
template <typename... Args>
void Note(const char* fmt, Args... args) {
  std::fprintf(stderr, fmt, args...);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
