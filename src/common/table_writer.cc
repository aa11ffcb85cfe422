#include "common/table_writer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace dgt {

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TableWriter::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TableWriter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TableWriter::Print(std::ostream& os) const {
  size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<size_t> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& r) {
    for (size_t i = 0; i < r.size(); ++i) {
      width[i] = std::max(width[i], r[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto print_row = [&](const std::vector<std::string>& r) {
    for (size_t i = 0; i < cols; ++i) {
      const std::string cell = i < r.size() ? r[i] : "";
      os << cell << std::string(width[i] - cell.size(), ' ');
      if (i + 1 < cols) os << "  ";
    }
    os << '\n';
  };

  if (!title_.empty()) os << title_ << '\n';
  if (!header_.empty()) {
    print_row(header_);
    size_t total = 0;
    for (size_t w : width) total += w;
    total += 2 * (cols > 0 ? cols - 1 : 0);
    os << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) print_row(r);
}

namespace {

std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void WriteCsvRow(std::ostream& os, const std::vector<std::string>& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) os << ',';
    os << CsvEscape(row[i]);
  }
  os << '\n';
}

}  // namespace

Status TableWriter::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  if (!header_.empty()) WriteCsvRow(out, header_);
  for (const auto& r : rows_) WriteCsvRow(out, r);
  out.flush();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace dgt
