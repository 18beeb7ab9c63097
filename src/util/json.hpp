// JSON string escaping and number formatting for every JSON the program
// writes (the experiment sinks, the trace file), plus a minimal ordered
// writer (`manywalks graph info --json`, the observability tests).
//
// Emission order is exactly call order: deterministic, byte-stable output
// is part of the sink contract, so there is no map-backed reordering here.
// Numbers render via std::to_chars (shortest round-trip form); NaN/Inf
// render as null because JSON has no spelling for them.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace manywalks {

/// Escaped JSON string contents (no surrounding quotes).
inline std::string json_escaped(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip decimal representation of a finite double.
inline std::string json_number_repr(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  MW_REQUIRE(ec == std::errc{}, "double formatting failed");
  return std::string(buffer, ptr);
}

class JsonWriter {
 public:
  /// pretty = true indents nested containers by two spaces per level.
  explicit JsonWriter(bool pretty = false) : pretty_(pretty) {}

  JsonWriter& begin_object() {
    separator();
    out_ += '{';
    push('}');
    return *this;
  }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() {
    separator();
    out_ += '[';
    push(']');
    return *this;
  }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view name) {
    separator();
    out_ += '"';
    out_ += json_escaped(name);
    out_ += pretty_ ? "\": " : "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value_str(std::string_view text) {
    separator();
    out_ += '"';
    out_ += json_escaped(text);
    out_ += '"';
    return *this;
  }
  JsonWriter& value_u64(std::uint64_t value) {
    separator();
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& value_i64(std::int64_t value) {
    separator();
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& value_num(double value) {
    separator();
    out_ += json_number_repr(value);
    return *this;
  }
  JsonWriter& value_bool(bool value) {
    separator();
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& value_null() {
    separator();
    out_ += "null";
    return *this;
  }
  /// Splices a pre-rendered JSON fragment as one value.
  JsonWriter& value_raw(std::string_view fragment) {
    separator();
    out_ += fragment;
    return *this;
  }

  /// The finished document. Requires every container to be closed.
  std::string take() {
    MW_REQUIRE(stack_.empty(), "JsonWriter: unclosed container");
    std::string out = std::move(out_);
    out_.clear();
    return out;
  }

 private:
  void push(char closer) {
    stack_.push_back(closer);
    first_.push_back(true);
  }
  JsonWriter& close(char closer) {
    MW_REQUIRE(!stack_.empty() && stack_.back() == closer,
               "JsonWriter: mismatched container close");
    const bool was_empty = first_.back();
    stack_.pop_back();
    first_.pop_back();
    if (pretty_ && !was_empty) newline_indent();
    out_ += closer;
    return *this;
  }
  /// Comma/newline bookkeeping before any element (key or value).
  void separator() {
    if (pending_value_) {  // the value right after a key: stay on the line
      pending_value_ = false;
      return;
    }
    if (stack_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
    if (pretty_) newline_indent();
  }
  void newline_indent() {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }

  std::string out_;
  std::vector<char> stack_;   // expected closers, innermost last
  std::vector<bool> first_;   // per container: no element emitted yet
  bool pretty_ = false;
  bool pending_value_ = false;
};

}  // namespace manywalks
