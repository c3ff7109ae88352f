// dosc_serve: standalone decision daemon.
//
//   dosc_serve <scenario.json> <policy.json> [flags]
//
// Serves placement decisions over UDP (wire format in src/serve/wire.hpp,
// DESIGN.md §10). Prints "PORT <n>" on stdout once listening. Reloads the
// policy snapshot when the file changes (see --reload-ms); SIGINT/SIGTERM
// shut it down cleanly with a final stats line. The flags are shared with
// `dosc_cli serve` (cli_flags.hpp); a bad flag exits 2 before any file is
// opened.
#include <cstdio>
#include <exception>

#include "cli_flags.hpp"
#include "serve/daemon.hpp"

int main(int argc, char** argv) {
  dosc::serve::DaemonOptions options;
  try {
    options = dosc::cli::parse_daemon_args(argc, argv, 1);
  } catch (const dosc::cli::FlagError& e) {
    std::fprintf(stderr, "dosc_serve: %s\nusage: dosc_serve <scenario.json> <policy.json> [flags]\n",
                 e.what());
    for (const dosc::cli::DaemonFlag& flag : dosc::cli::kDaemonFlags) {
      std::fprintf(stderr, "  %s\n", flag.help);
    }
    return 2;
  }
  try {
    return dosc::serve::run_daemon(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dosc_serve: %s\n", e.what());
    return 1;
  }
}
