/// \file snapshot_chain.cpp
/// \brief Durable snapshot-chain file I/O (layout: snapshot_chain.hpp).

#include "ingest/snapshot_chain.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "core/online/service_snapshot.hpp"

namespace efd::ingest {

namespace {

/// errno as "what: strerror" for operator-facing error strings.
std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// The directory holding \p path ("." for bare filenames).
std::string parent_dir(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  return parent.empty() ? std::string(".") : parent.string();
}

/// fsync on a directory fd makes the rename itself durable: without it
/// a power loss after rename can still resurrect the old directory
/// entry. Best-effort on filesystems that reject directory fsync.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool write_file_durable(const std::string& path, const void* data,
                        std::size_t size, std::string* error) {
  const std::string tmp = path + ".tmp";
  // O_TRUNC: a tmp leftover from a crashed writer is garbage by
  // definition (the rename never happened), so overwriting is correct.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = errno_text("open tmp");
    return false;
  }
  const char* cursor = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ssize_t wrote = ::write(fd, cursor, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = errno_text("write");
      ::close(fd);
      std::remove(tmp.c_str());
      return false;
    }
    cursor += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  // The fsync BEFORE the rename is the whole point: rename publishes
  // the file atomically, but only bytes already on the platter survive
  // a power loss — without this, the final path can hold a torn or
  // zero-length file.
  if (::fsync(fd) != 0) {
    if (error != nullptr) *error = errno_text("fsync");
    ::close(fd);
    std::remove(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    if (error != nullptr) *error = errno_text("close");
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = errno_text("rename");
    std::remove(tmp.c_str());
    return false;
  }
  fsync_dir(parent_dir(path));
  return true;
}

std::string capture_path(const std::string& base_path, bool base,
                         std::uint64_t capture_id) {
  return base ? base_path : base_path + ".delta." + std::to_string(capture_id);
}

std::vector<ChainFile> list_chain_deltas(const std::string& base_path) {
  std::vector<ChainFile> deltas;
  const std::string prefix =
      std::filesystem::path(base_path).filename().string() + ".delta.";
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(parent_dir(base_path), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix)) {
      continue;
    }
    const std::string suffix = name.substr(prefix.size());
    if (suffix.find_first_not_of("0123456789") != std::string::npos) continue;
    ChainFile file;
    file.path = entry.path().string();
    try {
      file.capture_id = std::stoull(suffix);
    } catch (const std::exception&) {
      continue;  // out-of-range id: not ours
    }
    deltas.push_back(std::move(file));
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const ChainFile& a, const ChainFile& b) {
              return a.capture_id < b.capture_id;
            });
  return deltas;
}

std::size_t remove_chain_deltas(const std::string& base_path) {
  std::size_t removed = 0;
  for (const ChainFile& file : list_chain_deltas(base_path)) {
    if (std::remove(file.path.c_str()) == 0) ++removed;
  }
  return removed;
}

bool persist_capture(const std::string& base_path, bool base,
                     std::uint64_t capture_id,
                     std::span<const std::uint8_t> bytes, std::string* error) {
  const std::string target = capture_path(base_path, base, capture_id);
  std::string reason;
  if (!write_file_durable(target, bytes.data(), bytes.size(), &reason)) {
    if (error != nullptr) *error = target + ": " + reason;
    return false;
  }
  // The new base supersedes every delta. Deleting AFTER the rename
  // means a crash in between leaves stale deltas whose parent ids no
  // longer chain — which restore detects and discards loudly in favor
  // of this (correct) base.
  if (base) remove_chain_deltas(base_path);
  return true;
}

std::optional<core::CaptureEnvelope> peek_capture_envelope(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint8_t head[core::kCaptureHeadBytes] = {};
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  if (!in) return std::nullopt;
  return core::read_capture_envelope(head);
}

ChainRestoreResult restore_service_from_chain(
    core::RecognitionService& service, const std::string& base_path) {
  ChainRestoreResult result;

  std::ifstream base(base_path, std::ios::binary);
  if (!base) {
    throw core::SnapshotError("cannot open snapshot file " + base_path);
  }

  const auto deltas = list_chain_deltas(base_path);
  if (!deltas.empty()) {
    std::vector<std::ifstream> files;
    std::vector<std::istream*> parts;
    files.reserve(deltas.size());
    parts.reserve(deltas.size() + 1);
    parts.push_back(&base);
    bool open_failed = false;
    for (const ChainFile& file : deltas) {
      files.emplace_back(file.path, std::ios::binary);
      if (!files.back()) {
        open_failed = true;
        break;
      }
      parts.push_back(&files.back());
    }
    if (!open_failed) {
      try {
        result.info = service.restore_chain(parts);
        return result;
      } catch (const core::SnapshotError& error) {
        result.fallback_error = error.what();
      }
    } else {
      result.fallback_error = "cannot open delta file";
    }
    result.deltas_discarded = deltas.size();
    base.clear();
    base.seekg(0);
  }

  // Base only — either there were no deltas, or the chain replay failed
  // and we fall back to the last complete base (the caller reports the
  // discard loudly). A base that fails HERE throws out: unreadable
  // snapshots must fail the boot, not silently start empty.
  std::istream* base_only[] = {&base};
  result.info = service.restore_chain(base_only);
  return result;
}

}  // namespace efd::ingest
