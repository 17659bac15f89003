// ASCII table rendering for the benchmark harnesses.  Every table/figure
// reproduction prints through this so output stays uniform and greppable.
#pragma once

#include <string>
#include <vector>

namespace cbe::util {

/// Formats `v` with %.17g, which round-trips every double: two renderings
/// are equal text exactly when the values are equal bits.
std::string fmt_f64(double v);

/// Column-aligned ASCII table with a title row and a header row.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cols);
  Table& row(std::vector<std::string> cells);

  /// Convenience: formats doubles with fixed precision.
  static std::string num(double v, int precision = 2);
  /// Formats seconds adaptively (s / ms / us).
  static std::string seconds(double s);

  std::string render() const;
  /// Renders to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders an (x, series...) dataset as a gnuplot-style ASCII chart, used by
/// the figure benches so curve crossovers are visible in plain terminals.
class AsciiChart {
 public:
  AsciiChart(std::string title, std::string xlabel, std::string ylabel)
      : title_(std::move(title)), xlabel_(std::move(xlabel)),
        ylabel_(std::move(ylabel)) {}

  void add_series(std::string name, std::vector<double> xs,
                  std::vector<double> ys);

  std::string render(int width = 72, int height = 20) const;
  void print(int width = 72, int height = 20) const;

 private:
  struct Series {
    std::string name;
    std::vector<double> xs, ys;
  };
  std::string title_, xlabel_, ylabel_;
  std::vector<Series> series_;
};

}  // namespace cbe::util
