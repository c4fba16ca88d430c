// The service workload's client side: spawns a service_daemon process, waits
// for its first health reply, and drives one cold round of the job stream
// through closed-loop connections, recording every reply as the caller sees
// it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace perfbench {

/// A service_daemon child process. The destructor kills and reaps a daemon
/// that was not stopped.
class Daemon {
 public:
  /// Spawns `binary` listening on `socket` with 2 workers and a 2-thread Lab;
  /// its stderr goes to `log`.
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& log);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon answers a health probe; returns the time from
  /// spawn to that reply (ns). Throws when it does not come up in 30 s.
  std::uint64_t wait_healthy();
  /// VmHWM of the daemon process, in KiB.
  [[nodiscard]] std::uint64_t peak_rss_kib() const;
  /// SIGTERM, then waits for the drain; returns the exit code (-1 when the
  /// daemon died on a signal).
  int stop();

 private:
  std::string socket_;
  pid_t pid_ = -1;
  std::uint64_t spawn_nanos_ = 0;
};

/// VmHWM (peak resident set) of the process at `proc_dir` ("/proc/self",
/// "/proc/<pid>"), in KiB; 0 when unreadable.
std::uint64_t vm_hwm_kib(const std::string& proc_dir);

/// One job as the client saw it.
struct JobSample {
  std::uint32_t job = 0;  ///< index into the universe
  std::uint64_t latency_ns = 0;
  /// JobStatus, 255 when the connection broke, 254 when the wire codec did
  /// not round-trip the job.
  std::uint8_t status = 0;
  bool cached = false;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t reply = 0;     ///< reply_checksum() of the response
  std::uint64_t codec_ns = 0;  ///< traced runs only
};

struct RoundResult {
  std::uint64_t setup_ns = 0;
  std::uint64_t wall_ns = 0;  ///< first request sent to last reply
  std::uint64_t peak_rss_kib = 0;
  int exit_code = 0;
  std::vector<JobSample> samples;
};

/// Spawns a fresh daemon and sends it `stream` (indices into `universe`) over
/// `connections` closed-loop connections. When `traced`, every call is a
/// TraceRecorder span and the wire codec work of each job is timed.
RoundResult run_round(const std::string& daemon_binary,
                      const std::string& socket, const std::string& log,
                      const std::vector<codelayout::service::JobRequest>& universe,
                      const std::vector<std::size_t>& stream,
                      unsigned connections, bool traced);

}  // namespace perfbench
