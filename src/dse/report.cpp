#include "dse/report.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <stdexcept>

namespace medea::dse {

std::vector<ExecTimeCurve> exec_time_curves(
    const std::vector<SweepPoint>& pts) {
  // Group by (cache, policy), x-sorted by cores.
  std::map<std::pair<std::uint32_t, int>, ExecTimeCurve> curves;
  for (const auto& p : pts) {
    auto& c = curves[{p.cache_kb, static_cast<int>(p.policy)}];
    if (c.title.empty()) {
      c.title = std::to_string(p.cache_kb) + "kB $ " + mem::to_string(p.policy);
    }
    c.cores.push_back(p.cores);
    c.cycles.push_back(p.cycles_per_iteration);
  }
  std::vector<ExecTimeCurve> out;
  out.reserve(curves.size());
  for (auto& [k, c] : curves) {
    // Sort each curve by core count.
    std::vector<std::size_t> idx(c.cores.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return c.cores[a] < c.cores[b];
    });
    ExecTimeCurve sorted;
    sorted.title = c.title;
    for (std::size_t i : idx) {
      sorted.cores.push_back(c.cores[i]);
      sorted.cycles.push_back(c.cycles[i]);
    }
    out.push_back(std::move(sorted));
  }
  return out;
}

std::string to_csv(const std::vector<SweepPoint>& pts) {
  std::ostringstream os;
  os << "cores,cache_kb,policy,cycles_per_iteration,area_mm2,label,implied\n";
  for (const auto& p : pts) {
    os << p.cores << ',' << p.cache_kb << ',' << mem::to_string(p.policy)
       << ',' << p.cycles_per_iteration << ',' << p.area_mm2 << ','
       << p.label << ',' << (p.implied ? 1 : 0) << '\n';
  }
  return std::move(os).str();
}

std::string exec_time_dat(const std::vector<ExecTimeCurve>& curves) {
  // Collect the union of core counts.
  std::set<int> xs;
  for (const auto& c : curves) xs.insert(c.cores.begin(), c.cores.end());
  std::ostringstream os;
  os << "# cores";
  for (const auto& c : curves) os << " \"" << c.title << '"';
  os << '\n';
  for (int x : xs) {
    os << x;
    for (const auto& c : curves) {
      double y = -1.0;
      for (std::size_t i = 0; i < c.cores.size(); ++i) {
        if (c.cores[i] == x) {
          y = c.cycles[i];
          break;
        }
      }
      if (y < 0) {
        os << " NaN";
      } else {
        os << ' ' << y;
      }
    }
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
