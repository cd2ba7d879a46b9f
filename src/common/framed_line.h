// The framed-line codec: the one owner of the frame grammar shared by
// the v3 session journal, the session spec file, the service wire
// protocol and the fleet event journal.
//
// A frame is one line whose payload is guarded by its CRC-32 and its
// byte length:
//
//   <crc32:8 lowercase hex> <len:decimal payload bytes> <payload>\n
//
// so a torn write (truncated tail) or a bit flip is detected at read
// time instead of being half-parsed.  Payloads never contain '\n'.
//
// A framed file is a bare header line followed by frames, one per
// line; every line after the header is a frame (there are no comment or
// blank lines a flipped byte could turn a record into).  walk_framed_lines
// reads such a file: LoadMode::kStrict throws at the first bad line,
// LoadMode::kRecover keeps the longest valid prefix and reports what it
// dropped.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace robotune {

/// Frames whose payload is longer than this are rejected: no legitimate
/// record comes close (a start request embedding a full spec is a few
/// hundred bytes), and the cap stops a garbage length from ballooning a
/// stream reader's buffer.
inline constexpr std::size_t kMaxFramePayloadBytes = std::size_t{1} << 20;

/// How a framed-file reader treats a torn or corrupt file.
enum class LoadMode {
  kStrict,   ///< any bad frame / malformed record throws InvalidArgument
  kRecover,  ///< truncate at the first bad record, keep the valid prefix
};

/// Appends the frame of `payload` (with its trailing newline) to `out`.
void append_frame(std::string& out, std::string_view payload);
/// Writes the frame of `payload` (with its trailing newline) to `out`.
void write_frame(std::ostream& out, std::string_view payload);

/// Parses one frame line (without its newline).  On success `payload`
/// views the payload bytes inside `line`.  Returns false (with `why`
/// set) on a short line, a non-lowercase-hex checksum, a bad or
/// over-cap length, a length mismatch (torn frame) or a checksum
/// mismatch (corrupt frame).
bool parse_frame(std::string_view line, std::string_view& payload,
                 std::string& why);

/// What walk_framed_lines did.
struct FramedWalk {
  bool header_ok = false;  ///< the text starts with the expected header
  bool recovered = false;  ///< recover mode dropped something
  std::size_t records = 0;      ///< payloads the callback accepted
  std::size_t dropped = 0;      ///< lines discarded (recover mode)
  std::size_t valid_bytes = 0;  ///< byte length of the valid prefix
};

/// Parses one payload; returns false with `why` set to reject it.
using FramePayloadParser =
    std::function<bool(std::string_view payload, std::string& why)>;

/// Walks a framed file: checks the header line, then hands every frame
/// payload to `parse` in order.  A line fails when it has no trailing
/// newline (torn), is not a valid frame, or `parse` rejects it.  In
/// kStrict the first failure throws InvalidArgument
/// "<source>:<line>: <why>" (an empty text throws "<source>: empty
/// stream").  In kRecover the walk stops there: the failing line and
/// every line after it are counted as dropped, and the records before
/// it stay accepted — so `parse` must leave its output untouched when it
/// rejects a payload.
FramedWalk walk_framed_lines(std::string_view text, std::string_view header,
                             LoadMode mode, const std::string& source,
                             const FramePayloadParser& parse);

}  // namespace robotune
