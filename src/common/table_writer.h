// TableWriter: renders experiment results as aligned text tables (for the
// bench binaries' stdout, mirroring the paper's tables) and as CSV files.

#ifndef DGT_COMMON_TABLE_WRITER_H_
#define DGT_COMMON_TABLE_WRITER_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace dgt {

class TableWriter {
 public:
  // `title` is printed above the table; may be empty.
  explicit TableWriter(std::string title) : title_(std::move(title)) {}

  void SetHeader(std::vector<std::string> header);

  // Appends a row of pre-formatted cells. Rows may be ragged; rendering
  // pads to the widest row.
  void AddRow(std::vector<std::string> row);

  // Renders the aligned table.
  void Print(std::ostream& os) const;

  // Writes header+rows as CSV. Fails with IoError if the file can't be
  // opened. Cells containing commas or quotes are quoted.
  Status WriteCsv(const std::string& path) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with fixed precision (helper for table cells).
std::string FormatDouble(double v, int precision = 4);

}  // namespace dgt

#endif  // DGT_COMMON_TABLE_WRITER_H_
