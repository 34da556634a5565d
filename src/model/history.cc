#include "src/model/history.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <sys/stat.h>

#include "src/arch/calibrate.h"

namespace fmm {
namespace {

constexpr char kHistoryHeader[] = "# fmm-history v1";

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t mix_doubles(std::uint64_t h, const std::vector<double>& v) {
  for (double d : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    h = mix(h, bits);
  }
  return h;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// One data row.  Returns false on any malformed field; `model` is filled
// first so save() can classify foreign rows before full validation.
bool parse_row(const std::string& line, std::string* model, HistoryKey* key,
               HistoryStats* stats) {
  std::istringstream iss(line);
  std::uint64_t count = 0;
  double mean = 0, m2 = 0;
  if (!(iss >> *model >> std::hex >> key->footprint >> std::dec >> key->mb >>
        key->nb >> key->kb >> key->kernel >> key->threads >> count >> mean >>
        m2)) {
    return false;
  }
  std::string trailing;
  if (iss >> trailing) return false;
  if (key->mb < 0 || key->nb < 0 || key->kb < 0 || key->threads < 1) {
    return false;
  }
  if (count < 1 || !std::isfinite(mean) || mean <= 0.0 ||
      !std::isfinite(m2) || m2 < 0.0) {
    return false;
  }
  stats->count = count;
  stats->mean = mean;
  stats->m2 = m2;
  return true;
}

}  // namespace

std::uint64_t plan_footprint(const Plan& plan) {
  std::uint64_t h = 0x484d4d66ull;  // "fMMH"
  h = mix(h, static_cast<std::uint64_t>(plan.variant));
  const FmmAlgorithm& f = plan.flat;
  h = mix(h, static_cast<std::uint64_t>(f.mt));
  h = mix(h, static_cast<std::uint64_t>(f.kt));
  h = mix(h, static_cast<std::uint64_t>(f.nt));
  h = mix(h, static_cast<std::uint64_t>(f.R));
  h = mix_doubles(h, f.U);
  h = mix_doubles(h, f.V);
  h = mix_doubles(h, f.W);
  return h;
}

int shape_bucket(index_t d) {
  if (d <= 0) return 0;
  if (d <= 16) return static_cast<int>(d);
  int msb = 0;
  for (index_t v = d; v > 1; v >>= 1) ++msb;  // floor(log2 d), >= 4
  const int frac =
      static_cast<int>((d - (index_t(1) << msb)) >> (msb - 3));  // 0..7
  return 17 + (msb - 4) * 8 + frac;
}

index_t shape_bucket_floor(int bucket) {
  if (bucket <= 16) return std::max(bucket, 0);
  const int b = bucket - 17;
  const int msb = 4 + b / 8;
  const int frac = b % 8;
  const index_t d =
      (index_t(1) << msb) + (static_cast<index_t>(frac) << (msb - 3));
  return std::max<index_t>(d, 17);
}

std::size_t HistoryKeyHash::operator()(const HistoryKey& k) const {
  std::uint64_t h = k.footprint;
  h = mix(h, static_cast<std::uint64_t>(k.mb));
  h = mix(h, static_cast<std::uint64_t>(k.nb));
  h = mix(h, static_cast<std::uint64_t>(k.kb));
  h = mix(h, static_cast<std::uint64_t>(k.threads));
  h = mix(h, std::hash<std::string>{}(k.kernel));
  return static_cast<std::size_t>(h);
}

double HistoryStats::stddev() const { return std::sqrt(variance()); }

double HistoryStats::rel_stddev() const {
  return mean > 0.0 ? stddev() / mean : 0.0;
}

void PerfHistory::set_tuning(const Tuning& tuning) {
  std::lock_guard<std::mutex> lk(mu_);
  tuning_ = tuning;
  for (auto& [key, node] : map_) {
    node.confident = node.stats.count >= tuning_.min_observations &&
                     node.stats.rel_stddev() <= tuning_.max_rel_stddev;
    node.published_mean = node.stats.mean;
  }
  revision_.fetch_add(1, std::memory_order_acq_rel);
}

void PerfHistory::record(const HistoryKey& key, double gflops) {
  if (!std::isfinite(gflops) || gflops <= 0.0) return;
  std::lock_guard<std::mutex> lk(mu_);
  Node& n = map_[key];
  HistoryStats& s = n.stats;
  ++s.count;
  const double delta = gflops - s.mean;
  s.mean += delta / static_cast<double>(s.count);
  s.m2 += delta * (gflops - s.mean);
  observations_.fetch_add(1, std::memory_order_relaxed);

  const bool gate = s.count >= tuning_.min_observations &&
                    s.rel_stddev() <= tuning_.max_rel_stddev;
  if (gate &&
      (!n.confident || std::abs(s.mean - n.published_mean) >
                           tuning_.drift_fraction * n.published_mean)) {
    n.confident = true;
    n.published_mean = s.mean;
    revision_.fetch_add(1, std::memory_order_acq_rel);
  } else if (!gate && n.confident) {
    // A confident key went noisy (e.g. co-tenancy): decisions that trusted
    // the measurement should be re-derived against the model.
    n.confident = false;
    revision_.fetch_add(1, std::memory_order_acq_rel);
  }
}

std::optional<HistoryStats> PerfHistory::lookup(const HistoryKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second.stats;
}

std::optional<double> PerfHistory::confident_gflops(
    const HistoryKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  const Node& n = it->second;
  if (n.stats.count < tuning_.min_observations ||
      n.stats.rel_stddev() > tuning_.max_rel_stddev) {
    return std::nullopt;
  }
  return n.stats.mean;
}

std::size_t PerfHistory::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void PerfHistory::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  observations_.store(0, std::memory_order_relaxed);
  revision_.fetch_add(1, std::memory_order_acq_rel);
}

std::vector<PerfHistory::Entry> PerfHistory::snapshot() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out.reserve(map_.size());
    for (const auto& [key, node] : map_) {
      const bool conf = node.stats.count >= tuning_.min_observations &&
                        node.stats.rel_stddev() <= tuning_.max_rel_stddev;
      out.push_back({key, node.stats, conf});
    }
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.key.footprint != b.key.footprint) {
      return a.key.footprint < b.key.footprint;
    }
    if (a.key.mb != b.key.mb) return a.key.mb < b.key.mb;
    if (a.key.nb != b.key.nb) return a.key.nb < b.key.nb;
    if (a.key.kb != b.key.kb) return a.key.kb < b.key.kb;
    if (a.key.kernel != b.key.kernel) return a.key.kernel < b.key.kernel;
    return a.key.threads < b.key.threads;
  });
  return out;
}

std::string PerfHistory::format_entry(const Entry& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "fp=%016" PRIx64
                " m~%lld n~%lld k~%lld %s thr=%d n=%llu %.2f +/- %.2f GF/s%s",
                e.key.footprint,
                static_cast<long long>(shape_bucket_floor(e.key.mb)),
                static_cast<long long>(shape_bucket_floor(e.key.nb)),
                static_cast<long long>(shape_bucket_floor(e.key.kb)),
                e.key.kernel.c_str(), e.key.threads,
                static_cast<unsigned long long>(e.stats.count), e.stats.mean,
                e.stats.stddev(), e.confident ? " [confident]" : "");
  return buf;
}

Status PerfHistory::load(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) {
    if (!file_exists(path)) return Status{};  // missing = fresh store
    return Status::error(StatusCode::kIOError,
                         "history file unreadable: " + path);
  }

  const std::string want_model = arch::calibration_cpu_key();
  std::string line;
  if (!std::getline(f, line)) {
    clear();
    return Status::error(StatusCode::kCorruptData,
                         "history file empty (missing header): " + path);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kHistoryHeader) {
    clear();
    return Status::error(StatusCode::kCorruptData,
                         "history file header/version mismatch: " + path);
  }

  std::unordered_map<HistoryKey, Node, HistoryKeyHash> loaded;
  std::uint64_t total = 0;
  while (std::getline(f, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::string model;
    HistoryKey key;
    HistoryStats stats;
    if (!parse_row(line, &model, &key, &stats)) {
      clear();
      return Status::error(StatusCode::kCorruptData,
                           "malformed history row in " + path + ": " + line);
    }
    if (model != want_model) continue;
    Node n;
    n.stats = stats;
    n.confident = stats.count >= tuning_.min_observations &&
                  stats.rel_stddev() <= tuning_.max_rel_stddev;
    n.published_mean = stats.mean;
    total += stats.count;
    loaded[key] = std::move(n);
  }

  std::lock_guard<std::mutex> lk(mu_);
  map_ = std::move(loaded);
  observations_.store(total, std::memory_order_relaxed);
  revision_.fetch_add(1, std::memory_order_acq_rel);
  return Status{};
}

Status PerfHistory::save(const std::string& path) const {
  const std::string our_model = arch::calibration_cpu_key();

  // Carry over other machines' rows verbatim (same file can serve a fleet
  // of heterogeneous hosts on shared storage, like FMM_CALIB_CACHE).
  std::vector<std::string> foreign;
  {
    std::ifstream in(path);
    std::string line;
    bool first = true;
    while (in && std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (first) {
        first = false;
        if (line == kHistoryHeader) continue;
        // Unknown version/garbage: do not propagate its rows.
        break;
      }
      if (line.empty() || line[0] == '#') continue;
      std::string model;
      HistoryKey key;
      HistoryStats stats;
      if (parse_row(line, &model, &key, &stats) && model != our_model) {
        foreign.push_back(line);
      }
    }
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return Status::error(StatusCode::kIOError,
                           "cannot open history file for writing: " + tmp);
    }
    out << kHistoryHeader << '\n';
    out << std::setprecision(17);  // doubles round-trip exactly
    for (const std::string& line : foreign) out << line << '\n';
    char fp[32];
    for (const Entry& e : snapshot()) {
      std::snprintf(fp, sizeof(fp), "%" PRIx64, e.key.footprint);
      out << our_model << ' ' << fp << ' ' << e.key.mb << ' ' << e.key.nb
          << ' ' << e.key.kb << ' ' << e.key.kernel << ' ' << e.key.threads
          << ' ' << e.stats.count << ' ' << e.stats.mean << ' ' << e.stats.m2
          << '\n';
    }
    out.flush();
    if (!out) {
      return Status::error(StatusCode::kIOError,
                           "short write to history file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::error(StatusCode::kIOError,
                         "cannot replace history file: " + path);
  }
  return Status{};
}

}  // namespace fmm
