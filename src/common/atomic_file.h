// Crash-safe whole-file replacement, shared by every writer that
// rewrites a file in place: the session journal, the memoization state
// file, the spec file, trace exports and metrics snapshots.
//
// The content goes to `<path>.tmp`, which is then renamed over `<path>`,
// so a crash or a failed write leaves either the previous file or the
// new one — never a truncated mix.  Header-only: the obs layer uses it
// too, and robotune_common itself links against robotune_obs.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>

namespace robotune {

/// Durability of write_file_atomically.
enum class SyncPolicy {
  kNone,   ///< rely on the OS page cache (write-then-rename only)
  kFsync,  ///< fsync the file and its directory before returning
};

namespace detail {

inline bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// fsyncs the directory containing `path` so a rename into it is durable.
inline bool fsync_parent(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return fsync_path(slash == std::string::npos
                        ? std::string(".")
                        : path.substr(0, slash == 0 ? 1 : slash));
}

}  // namespace detail

/// Replaces `path` with what `write` puts on the stream.  Returns false,
/// with `path` untouched and any temp file this call wrote removed, when
/// the temp file cannot be created, the stream fails (writing or
/// closing), the file's fsync fails (kFsync) or the rename fails.  Also
/// returns false when the directory fsync after the rename fails.
inline bool write_file_atomically(
    const std::string& path, const std::function<void(std::ostream&)>& write,
    SyncPolicy sync = SyncPolicy::kNone) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return false;
  write(out);
  out.close();
  bool ok = static_cast<bool>(out);
  if (ok && sync == SyncPolicy::kFsync) ok = detail::fsync_path(tmp);
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return sync == SyncPolicy::kNone || detail::fsync_parent(path);
}

}  // namespace robotune
