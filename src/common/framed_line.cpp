#include "common/framed_line.h"

#include <cstdint>
#include <cstdio>
#include <ostream>

#include "common/crc32.h"
#include "common/error.h"

namespace robotune {

namespace {

/// Formats "<crc32:8 hex> <len> ", the part of a frame before its
/// payload, into `head`; returns its length.
std::size_t format_head(char (&head)[32], std::string_view payload) {
  return static_cast<std::size_t>(std::snprintf(
      head, sizeof(head), "%08x %zu ", crc32(payload), payload.size()));
}

int lower_hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Lines in `text`, counting an unterminated tail as one.
std::size_t count_lines(std::string_view text) {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < text.size(); ++n) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) return n + 1;
    pos = eol + 1;
  }
  return n;
}

}  // namespace

void append_frame(std::string& out, std::string_view payload) {
  char head[32];
  out.append(head, format_head(head, payload));
  out.append(payload);
  out.push_back('\n');
}

void write_frame(std::ostream& out, std::string_view payload) {
  char head[32];
  out.write(head, static_cast<std::streamsize>(format_head(head, payload)));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.put('\n');
}

bool parse_frame(std::string_view line, std::string_view& payload,
                 std::string& why) {
  if (line.size() < 11 || line[8] != ' ') {
    why = "bad frame";
    return false;
  }
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const int nibble = lower_hex_value(line[i]);
    if (nibble < 0) {
      why = "bad frame checksum field";
      return false;
    }
    crc = (crc << 4) | static_cast<std::uint32_t>(nibble);
  }
  std::size_t pos = 9;
  if (!is_digit(line[pos])) {
    why = "bad frame length field";
    return false;
  }
  std::size_t len = 0;
  for (; pos < line.size() && is_digit(line[pos]); ++pos) {
    len = len * 10 + static_cast<std::size_t>(line[pos] - '0');
    if (len > kMaxFramePayloadBytes) {
      why = "frame too large";
      return false;
    }
  }
  if (pos >= line.size() || line[pos] != ' ') {
    why = "bad frame length field";
    return false;
  }
  payload = line.substr(pos + 1);
  if (payload.size() != len) {
    why = "frame length mismatch (torn)";
    return false;
  }
  if (crc32(payload) != crc) {
    why = "frame checksum mismatch (corrupt)";
    return false;
  }
  return true;
}

FramedWalk walk_framed_lines(std::string_view text, std::string_view header,
                             LoadMode mode, const std::string& source,
                             const FramePayloadParser& parse) {
  FramedWalk walk;
  // Stops the walk at the line starting at byte `from`.
  const auto fail = [&](std::size_t line_no, std::size_t from,
                        const std::string& why) {
    if (mode == LoadMode::kStrict) {
      throw InvalidArgument(source + ":" + std::to_string(line_no) + ": " +
                            why);
    }
    walk.recovered = true;
    walk.dropped = count_lines(text.substr(from));
    return walk;
  };
  if (text.empty()) {
    if (mode == LoadMode::kStrict) {
      throw InvalidArgument(source + ": empty stream");
    }
    walk.recovered = true;
    return walk;
  }
  std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos || text.substr(0, eol) != header) {
    return fail(1, 0, "unrecognized header");
  }
  walk.header_ok = true;
  walk.valid_bytes = eol + 1;
  std::string why;
  for (std::size_t line_no = 2; walk.valid_bytes < text.size(); ++line_no) {
    const std::size_t begin = walk.valid_bytes;
    eol = text.find('\n', begin);
    std::string_view payload;
    if (eol == std::string_view::npos) {
      return fail(line_no, begin, "torn frame (no trailing newline)");
    }
    if (!parse_frame(text.substr(begin, eol - begin), payload, why) ||
        !parse(payload, why)) {
      return fail(line_no, begin, why);
    }
    ++walk.records;
    walk.valid_bytes = eol + 1;
  }
  return walk;
}

}  // namespace robotune
