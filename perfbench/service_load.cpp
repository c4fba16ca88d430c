#include "service_load.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cells.hpp"
#include "service/client.hpp"
#include "support/metrics.hpp"
#include "support/trace_recorder.hpp"

extern char** environ;

namespace perfbench {

using namespace codelayout;
using namespace codelayout::service;

Daemon::Daemon(const std::string& binary, const std::string& socket,
               const std::string& log)
    : socket_(socket) {
  ::unlink(socket.c_str());
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> args = {binary,      "--socket", socket,
                                   "--workers", "2",        "--threads",
                                   "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  spawn_nanos_ = wall_nanos_now();
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary);
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

std::uint64_t Daemon::wait_healthy() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      ServiceClient client = ServiceClient::connect_unix(socket_);
      if (client.introspect(IntrospectKind::kHealth).find("\"ok\"") !=
          std::string::npos) {
        return wall_nanos_now() - spawn_nanos_;
      }
    } catch (const std::exception&) {
      // Not listening yet.
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("service daemon exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  throw std::runtime_error("service daemon did not become healthy");
}

std::uint64_t vm_hwm_kib(const std::string& proc_dir) {
  std::ifstream status(proc_dir + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

std::uint64_t Daemon::peak_rss_kib() const {
  return vm_hwm_kib("/proc/" + std::to_string(pid_));
}

int Daemon::stop() {
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

namespace {

/// The wire work of one job on both ends: the client encodes the request and
/// decodes the reply, the daemon the reverse. nullopt when a round trip
/// changed the job.
std::optional<std::uint64_t> codec_nanos(const JobRequest& request,
                          const JobResponse& response) {
  const std::uint64_t start = wall_nanos_now();
  const std::string request_frame = encode_request_frame(request);
  const JobRequest decoded_request = decode_request_payload(
      std::string_view(request_frame).substr(kFrameHeaderBytes));
  const std::string response_payload = encode_response_payload(response);
  const JobResponse decoded_response =
      decode_response_payload(response_payload);
  const std::uint64_t ns = wall_nanos_now() - start;
  if (!(decoded_request == request && decoded_response == response)) {
    return std::nullopt;
  }
  return ns;
}

}  // namespace

RoundResult run_round(const std::string& daemon_binary,
                      const std::string& socket, const std::string& log,
                      const std::vector<JobRequest>& universe,
                      const std::vector<std::size_t>& stream,
                      unsigned connections, bool traced) {
  RoundResult out;
  Daemon daemon(daemon_binary, socket, log);
  out.setup_ns = daemon.wait_healthy();
  out.samples.resize(stream.size());

  std::atomic<std::size_t> next{0};
  std::atomic<bool> connect_failed{false};
  auto connection = [&] {
    std::optional<ServiceClient> connected;
    try {
      connected.emplace(ServiceClient::connect_unix(socket));
    } catch (const std::exception&) {
      connect_failed = true;
      return;
    }
    ServiceClient& client = *connected;
    for (std::size_t i; (i = next.fetch_add(1)) < stream.size();) {
      JobRequest request = universe[stream[i]];
      request.id = i + 1;
      JobSample& sample = out.samples[i];
      sample.job = static_cast<std::uint32_t>(stream[i]);
      const std::uint64_t start = wall_nanos_now();
      JobResponse response;
      try {
        response = client.call(request);
      } catch (const std::exception&) {
        sample.latency_ns = wall_nanos_now() - start;
        sample.status = 255;
        continue;
      }
      sample.latency_ns = wall_nanos_now() - start;
      sample.status = static_cast<std::uint8_t>(response.status);
      sample.cached = response.receipt.cached;
      sample.queue_wait_ns = response.receipt.queue_wait_nanos;
      sample.exec_ns = response.receipt.wall_nanos;
      if (traced) {
        TraceRecorder::instance().record_span(
            "service.call", "perfbench", start, sample.latency_ns,
            {{"job", request.to_string()},
             {"cached", sample.cached ? "true" : "false"}});
        const std::optional<std::uint64_t> codec =
            codec_nanos(request, response);
        if (!codec) sample.status = 254;
        sample.codec_ns = codec.value_or(0);
      }
      sample.reply = reply_checksum(std::move(response));
    }
  };
  const std::uint64_t start = wall_nanos_now();
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < connections; ++c) threads.emplace_back(connection);
  }
  out.wall_ns = wall_nanos_now() - start;
  out.peak_rss_kib = daemon.peak_rss_kib();
  out.exit_code = daemon.stop();
  // Jobs no connection could send stay at their zero sample: count the round
  // as failed through its exit code.
  if (connect_failed && out.exit_code == 0) out.exit_code = -2;
  return out;
}

}  // namespace perfbench
