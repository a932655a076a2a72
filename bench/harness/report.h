// Tiny fixed-width table / series printer for the reproduction binaries.
// Every bench prints the same rows/series the paper's figure or table shows,
// so the reproduction's results can be read straight from `bench_output.txt`.
#ifndef DSD_BENCH_HARNESS_REPORT_H_
#define DSD_BENCH_HARNESS_REPORT_H_

#include <string>
#include <vector>

namespace dsd::bench {

/// Fixed-width table accumulated row by row, printed to stdout.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a row (same arity as the header).
  void AddRow(std::vector<std::string> row);

  /// Prints header + rows with aligned columns.
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// "12.3ms" / "4.56s" style duration formatting.
std::string FormatSeconds(double seconds);

/// Fixed-precision double.
std::string FormatDouble(double value, int precision = 3);

/// Section banner: "=== <title> ===".
void Banner(const std::string& title);

}  // namespace dsd::bench

#endif  // DSD_BENCH_HARNESS_REPORT_H_
