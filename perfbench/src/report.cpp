#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

/// Round-trip rendering of a double: every digit.
std::string num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string summary_json(const Summary& s) {
  std::string out = "{\"count\": " + std::to_string(s.count) +
                    ", \"median\": " + num(s.median) +
                    ", \"mean\": " + num(s.mean) +
                    ", \"min\": " + num(s.min) + ", \"max\": " + num(s.max);
  if (s.tail)
    out += ", \"tail_percentile\": " + num(s.tail->percentile) +
           ", \"tail\": " + num(s.tail->value);
  return out + "}";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++check_failures_;
  if (failures_.size() < 32) failures_.push_back(what);
}

void Report::series(const std::string& name,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  series_.push_back({name, {summarize(samples), unit}});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, quote(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, std::isfinite(value) ? num(value) : "null");
}

void Report::spans(
    const std::map<std::string, std::vector<double>>& self_seconds) {
  for (const auto& [name, samples] : self_seconds)
    spans_.emplace_back(name, summarize(samples));
}

std::string Report::result_line() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, m] = metrics_[i];
    out += (i == 0 ? "" : ", ") + quote(name) + ": {\"value\": " +
           num(m.first) + ", \"unit\": " + quote(m.second) + "}";
  }
  return out + "}}";
}

bool Report::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n  \"result\": " << result_line() << ",\n  \"checks\": "
     << checks_ << ",\n  \"check_failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    os << (i == 0 ? "" : ", ") << quote(failures_[i]);
  os << "],\n  \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i)
    os << (i == 0 ? "\n    " : ",\n    ") << quote(info_[i].first) << ": "
       << info_[i].second;
  os << "\n  },\n  \"series\": {";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const auto& [name, s] = series_[i];
    os << (i == 0 ? "\n    " : ",\n    ") << quote(name)
       << ": {\"unit\": " << quote(s.second)
       << ", \"summary\": " << summary_json(s.first) << "}";
  }
  os << "\n  },\n  \"span_self_seconds\": {";
  for (std::size_t i = 0; i < spans_.size(); ++i)
    os << (i == 0 ? "\n    " : ",\n    ") << quote(spans_[i].first) << ": "
       << summary_json(spans_[i].second);
  os << "\n  }\n}\n";
  return static_cast<bool>(os);
}

void record_environment(Report& report, const std::string& source_id) {
  report.info("env.source_id", source_id);
  report.info("env.compiler", PERFBENCH_COMPILER);
  report.info("env.build_type", PERFBENCH_BUILD_TYPE);
  report.info("env.nproc",
              static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  report.info("env.cpu_model", cpu);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

}  // namespace perfbench
