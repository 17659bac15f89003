#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace cbe::util {

std::string fmt_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Table& Table::header(std::vector<std::string> cols) {
  header_ = std::move(cols);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::seconds(double s) {
  char buf[64];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fus", s * 1e6);
  }
  return buf;
}

std::string Table::render() const {
  std::vector<std::size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& cells) {
    if (widths.size() < cells.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  auto rule = [&out, &widths] {
    out << '+';
    for (auto w : widths) out << std::string(w + 2, '-') << '+';
    out << '\n';
  };
  auto line = [&out, &widths](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      out << ' ' << c << std::string(widths[i] - c.size() + 1, ' ') << '|';
    }
    out << '\n';
  };

  out << "== " << title_ << " ==\n";
  rule();
  if (!header_.empty()) {
    line(header_);
    rule();
  }
  for (const auto& r : rows_) line(r);
  rule();
  return out.str();
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

void AsciiChart::add_series(std::string name, std::vector<double> xs,
                            std::vector<double> ys) {
  series_.push_back({std::move(name), std::move(xs), std::move(ys)});
}

std::string AsciiChart::render(int width, int height) const {
  std::ostringstream out;
  out << "-- " << title_ << " --\n";
  if (series_.empty()) return out.str();

  double xmin = 1e300, xmax = -1e300, ymin = 0.0, ymax = -1e300;
  for (const auto& s : series_) {
    for (double x : s.xs) {
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
    }
    for (double y : s.ys) ymax = std::max(ymax, y);
  }
  if (!(xmax > xmin)) xmax = xmin + 1.0;
  if (!(ymax > ymin)) ymax = ymin + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width),
                                            ' '));
  const char* marks = "*o+x#@%&";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const auto& s = series_[si];
    const char m = marks[si % 8];
    for (std::size_t i = 0; i < s.xs.size() && i < s.ys.size(); ++i) {
      const double fx = (s.xs[i] - xmin) / (xmax - xmin);
      const double fy = (s.ys[i] - ymin) / (ymax - ymin);
      auto cx = static_cast<int>(std::lround(fx * (width - 1)));
      auto cy = static_cast<int>(std::lround(fy * (height - 1)));
      cx = std::clamp(cx, 0, width - 1);
      cy = std::clamp(cy, 0, height - 1);
      grid[static_cast<std::size_t>(height - 1 - cy)]
          [static_cast<std::size_t>(cx)] = m;
    }
  }

  char buf[64];
  std::snprintf(buf, sizeof buf, "%10.2f |", ymax);
  out << buf << grid.front() << '\n';
  for (int r = 1; r + 1 < height; ++r) {
    out << std::string(11, ' ') << '|' << grid[static_cast<std::size_t>(r)]
        << '\n';
  }
  std::snprintf(buf, sizeof buf, "%10.2f |", ymin);
  out << buf << grid.back() << '\n';
  out << std::string(11, ' ') << '+' << std::string(
      static_cast<std::size_t>(width), '-') << '\n';
  std::snprintf(buf, sizeof buf, "%12.0f", xmin);
  out << buf << std::string(static_cast<std::size_t>(width) - 12, ' ');
  std::snprintf(buf, sizeof buf, "%6.0f", xmax);
  out << buf << "  (" << xlabel_ << " vs " << ylabel_ << ")\n";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    out << "   " << marks[si % 8] << " = " << series_[si].name << '\n';
  }
  return out.str();
}

void AsciiChart::print(int width, int height) const {
  std::fputs(render(width, height).c_str(), stdout);
}

}  // namespace cbe::util
