#include "dse/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace medea::dse {

namespace {

/// A cycle count in the shortest form that reads back as the same
/// double: 1293880, never the stream default's 1.29388e+06.
std::string num(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

/// printf onto the end of `out` (one table cell or one text line).
template <typename... Args>
void appendf(std::string& out, const char* format, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, args...);
  out += buf;
}

/// Every core count of `curves`, ascending, each with one y per curve:
/// that curve's cycles there, or NaN where it has no point.
std::map<int, std::vector<double>> rows_by_cores(
    const std::vector<ExecTimeCurve>& curves) {
  std::map<int, std::vector<double>> rows;
  for (std::size_t i = 0; i < curves.size(); ++i) {
    for (std::size_t k = 0; k < curves[i].cores.size(); ++k) {
      auto& row = rows[curves[i].cores[k]];
      row.resize(curves.size(), std::numeric_limits<double>::quiet_NaN());
      row[i] = curves[i].cycles[k];
    }
  }
  return rows;
}

}  // namespace

std::vector<ExecTimeCurve> exec_time_curves(
    const std::vector<SweepPoint>& pts) {
  std::vector<const SweepPoint*> order;
  order.reserve(pts.size());
  for (const auto& p : pts) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const SweepPoint* a, const SweepPoint* b) {
              return std::tie(a->policy, a->cache_kb, a->cores) <
                     std::tie(b->policy, b->cache_kb, b->cores);
            });
  std::vector<ExecTimeCurve> out;
  for (const SweepPoint* p : order) {
    if (out.empty() || out.back().policy != p->policy ||
        out.back().cache_kb != p->cache_kb) {
      auto& c = out.emplace_back();
      c.cache_kb = p->cache_kb;
      c.policy = p->policy;
      c.title = std::to_string(p->cache_kb) + "kB $ " +
                mem::to_string(p->policy);
    }
    out.back().cores.push_back(p->cores);
    out.back().cycles.push_back(p->cycles_per_iteration);
  }
  return out;
}

std::vector<SweepPoint> subset(const std::vector<SweepPoint>& pts,
                               mem::WritePolicy policy, std::uint32_t max_kb) {
  std::vector<SweepPoint> out;
  for (const auto& p : pts) {
    if (p.policy == policy && p.cache_kb <= max_kb) out.push_back(p);
  }
  return out;
}

std::string exec_time_table(const std::vector<SweepPoint>& pts) {
  const auto curves = exec_time_curves(pts);
  std::string out = "cores ";
  for (const auto& c : curves) {
    const std::string column =
        std::to_string(c.cache_kb) + "k$" + mem::to_string(c.policy);
    appendf(out, "%10s", column.c_str());
  }
  for (const auto& [cores, ys] : rows_by_cores(curves)) {
    appendf(out, "\n%-6d", cores);
    for (double y : ys) appendf(out, "%10.0f", y);
  }
  return out + '\n';
}

Frontier speedup_frontier(const std::vector<SweepPoint>& pts) {
  const auto pareto = pareto_frontier(to_design_points(pts));
  if (pareto.empty()) return {};
  // The paper normalises against the smallest-area configuration.
  return {speedup_curve(pareto, pareto.front().exec_cycles),
          kill_rule_knee(pareto)};
}

std::string frontier_text(const std::vector<SweepPoint>& pts) {
  const Frontier f = speedup_frontier(pts);
  std::string out;
  const auto line = [&out](std::string head, const SpeedupPoint& p) {
    head += p.label;
    appendf(out, "%-22s # %5.2f mm2, speedup %5.2f\n", head.c_str(),
            p.area_mm2, p.speedup);
  };
  for (const auto& p : f.points) line("frontier ", p);
  if (!f.points.empty()) line("knee ", f.points[f.knee]);
  return out;
}

std::string point_counts(const std::vector<SweepPoint>& pts) {
  const std::size_t implied = count_implied(pts);
  std::string out;
  appendf(out, "# %zu design points: %zu simulated, %zu implied\n",
          pts.size(), pts.size() - implied, implied);
  return out;
}

std::string to_csv(const std::vector<SweepPoint>& pts) {
  std::ostringstream os;
  os << "cores,cache_kb,policy,cycles_per_iteration,area_mm2,label,implied\n";
  for (const auto& p : pts) {
    os << p.cores << ',' << p.cache_kb << ',' << mem::to_string(p.policy)
       << ',' << num(p.cycles_per_iteration) << ',' << p.area_mm2 << ','
       << p.label << ',' << (p.implied ? 1 : 0) << '\n';
  }
  return std::move(os).str();
}

std::string exec_time_dat(const std::vector<ExecTimeCurve>& curves) {
  std::ostringstream os;
  os << "# cores";
  for (const auto& c : curves) os << " \"" << c.title << '"';
  os << '\n';
  for (const auto& [cores, ys] : rows_by_cores(curves)) {
    os << cores;
    for (double y : ys) os << ' ' << (std::isnan(y) ? "NaN" : num(y));
    os << '\n';
  }
  return std::move(os).str();
}

std::string exec_time_gp(const std::vector<ExecTimeCurve>& curves,
                         const std::string& dat_filename,
                         const std::string& title) {
  std::ostringstream os;
  os << "set title \"" << title << "\"\n"
     << "set xlabel \"Number of cores\"\n"
     << "set ylabel \"Execution Time (clock cycles)\"\n"
     << "set key outside right\n"
     << "set grid\n"
     << "plot ";
  for (std::size_t i = 0; i < curves.size(); ++i) {
    if (i) os << ", \\\n     ";
    os << '"' << dat_filename << "\" using 1:" << (i + 2) << " with linespoints"
       << " title \"" << curves[i].title << '"';
  }
  os << '\n';
  return std::move(os).str();
}

std::string speedup_dat(const std::vector<SpeedupPoint>& curve) {
  std::ostringstream os;
  os << "# area_mm2 speedup label\n";
  for (const auto& p : curve) {
    os << p.area_mm2 << ' ' << p.speedup << " \"" << p.label << "\"\n";
  }
  return std::move(os).str();
}

std::string speedup_gp(const std::string& dat_filename,
                       const std::string& title) {
  std::ostringstream os;
  os << "set title \"" << title << "\"\n"
     << "set xlabel \"Chip Area (sqmm)\"\n"
     << "set ylabel \"Speed Up\"\n"
     << "set grid\n"
     << "plot \"" << dat_filename
     << "\" using 1:2 with linespoints notitle, \\\n     \"" << dat_filename
     << "\" using 1:2:3 with labels offset char 1,1 notitle\n";
  return std::move(os).str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  os << content;
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace medea::dse
