#pragma once
/// \file thread_probe.hpp
/// \brief Reads this process's threads and their wakeups from /proc, for
/// tests that check how many threads run and how often one wakes.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

namespace efd::test {

/// The ids of this process's threads.
inline std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

/// A thread's voluntary context switches so far (its wakeups); -1 when
/// the thread is gone.
inline long voluntary_switches(const std::string& tid) {
  std::ifstream status("/proc/self/task/" + tid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      return std::atol(line.c_str() + line.find(':') + 1);
    }
  }
  return -1;
}

}  // namespace efd::test
