// The layout-optimization daemon (DESIGN.md §12): wraps the Lab in a
// long-lived service that accepts jobs over a unix-domain socket, with
// admission control, three-class prioritization, and graceful drain on
// SIGINT/SIGTERM. Repeated jobs run again and are answered from the Lab's
// per-cell memo.
//
//   service_daemon [--socket PATH] [--workers N] [--queue-depth N]
//                  [--threads N] [--metrics-out FILE] [--trace-out FILE]
//
// Drive it with bench_service --connect PATH (the load generator), or any
// client speaking the protocol in src/service/protocol.hpp.
#include <csignal>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace codelayout;
  using namespace codelayout::service;

  BenchArgs bench;
  std::string socket_path = "codelayout-service.sock";
  unsigned workers = 2;
  unsigned queue_depth = 64;

  CliOptions cli(argv[0],
                 "Layout-optimization service daemon: serves solo / layout / "
                 "co-run / trace-stats jobs over a unix socket until SIGINT "
                 "or SIGTERM, then drains in-flight jobs and exits.");
  add_bench_flags(cli, bench);
  cli.option("--socket", &socket_path, "PATH",
             "unix socket to listen on (unlinks any stale one)");
  cli.option_uint("--workers", &workers, 1, 256,
                  "N", "dedicated job threads (jobs parallelize internally "
                       "via the engine pool)");
  cli.option_uint("--queue-depth", &queue_depth, 1, 1u << 20, "N",
                  "bounded queue depth; further jobs are rejected");
  cli.parse_or_exit(argc, argv);
  apply_bench_observability(bench);

  // Block the shutdown signals before any thread exists so workers inherit
  // the mask and sigwait below owns delivery.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  ServerConfig config;
  config.workers = workers;
  config.queue_depth = queue_depth;

  ServiceServer server(config,
                       std::make_unique<LabExecutor>(bench_lab_options(bench)));
  server.listen_unix(socket_path);
  std::fprintf(stderr,
               "service daemon listening on %s (%u workers, queue depth %u)\n",
               socket_path.c_str(), workers, queue_depth);

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::fprintf(stderr, "signal %d: draining and shutting down\n",
               signal_number);
  server.shutdown();

  const ServiceServer::Stats stats = server.stats();
  std::fprintf(stderr,
               "served %llu jobs (%llu completed, %llu rejected, %llu during "
               "drain)\n",
               static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.shutdown_rejected));
  finish_observability(bench, "service_daemon");
  return 0;
}
