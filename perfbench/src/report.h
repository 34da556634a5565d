#pragma once

// Small helpers for the benchmark's machine-readable output: a flat JSON
// object writer (full-precision numbers) and sample percentiles.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  // `json` must already be valid JSON (a nested object or array).
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += quote(key) + ":" + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out += '\\';
        out += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", ch);
        out += esc;
      } else {
        out += ch;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + items[i];
  }
  return out + "]";
}

inline std::string num_array(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    items.push_back(buf);
  }
  return json_array(items);
}

// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace perfbench
