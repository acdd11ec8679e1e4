//===- irdl_serve.cpp - Persistent verification daemon --------------------===//
///
/// The production counterpart of irdl_opt: a long-lived process that pays
/// context construction, dialect registration, and constraint compilation
/// once, then serves verification over a unix-domain socket (the framed
/// protocol in docs/serving.md). Dialects can be preloaded from the
/// command line and hot-(re)loaded at runtime through LOAD_DIALECT /
/// RELOAD_DIALECT; METRICS exposes the Prometheus registry.
///
/// Usage:
///   irdl_serve --socket=/path/to.sock [--dialect file.irdl]...
///              [--metrics-json=FILE]
///
/// SIGINT/SIGTERM stop the accept loop gracefully: in-flight responses
/// flush, the socket file is unlinked, and the --metrics-json artifact is
/// written before exit.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/File.h"
#include "support/Metrics.h"
#include "support/Signal.h"

#include <fstream>
#include <iostream>

using namespace irdl;
using namespace irdl::serve;

int main(int argc, char **argv) {
  std::string SocketPath = "/tmp/irdl_serve.sock";
  std::vector<std::string> DialectFiles;
  std::string MetricsJsonFile;
  bool Metrics = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::cerr << "missing value after " << Arg << "\n";
        std::exit(1);
      }
      return argv[++I];
    };
    if (Arg.rfind("--socket=", 0) == 0) {
      SocketPath = Arg.substr(std::string("--socket=").size());
      if (SocketPath.empty()) {
        std::cerr << "--socket= requires a path\n";
        return 1;
      }
    } else if (Arg == "--dialect")
      DialectFiles.push_back(NextValue());
    else if (Arg == "--metrics")
      Metrics = true;
    else if (Arg.rfind("--metrics-json=", 0) == 0) {
      MetricsJsonFile = Arg.substr(std::string("--metrics-json=").size());
      if (MetricsJsonFile.empty()) {
        std::cerr << "--metrics-json= requires a file name\n";
        return 1;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      std::cout << "usage: irdl_serve [--socket=PATH] "
                   "[--dialect f.irdl]...\n"
                   "                  [--metrics] [--metrics-json=FILE]\n";
      return 0;
    } else {
      std::cerr << "unknown option " << Arg << " (see --help)\n";
      return 1;
    }
  }

  // A verification service without observability is not operable; the
  // library instrumentation (verifier latency, reader throughput,
  // constraint dispatch) is always on so METRICS has something to say.
  setMetricsEnabled(true);

  VerifyServer Server(ServerOptions{SocketPath});

  for (const std::string &Path : DialectFiles) {
    std::string Buffer, Error;
    if (failed(readFileToString(Path, Buffer, Error))) {
      std::cerr << "cannot read dialect file " << Path << ": " << Error
                << "\n";
      return 1;
    }
    std::string DiagText;
    if (failed(Server.epochs().loadDialect(Path, std::move(Buffer),
                                           DiagText))) {
      std::cerr << DiagText;
      return 1;
    }
  }

  std::string Error;
  if (failed(Server.start(Error))) {
    std::cerr << "irdl_serve: " << Error << "\n";
    return 1;
  }

  // The handler only does async-signal-safe work (atomic store +
  // shutdown(2) on the listening socket); metrics flushing happens below,
  // on the normal path, once serve() winds down.
  installStopNotifyHandler([&Server]() { Server.requestStop(); });

  std::cerr << "irdl_serve: listening on " << SocketPath << " (epoch "
            << Server.epochs().currentEpochNumber() << ", "
            << DialectFiles.size() << " preloaded dialect file(s))\n";
  Server.serve();
  std::cerr << "irdl_serve: shut down\n";

  if (Metrics)
    std::cerr << MetricsRegistry::instance().renderPrometheus();
  if (!MetricsJsonFile.empty()) {
    std::ofstream Out(MetricsJsonFile);
    if (!Out) {
      std::cerr << "cannot write metrics to " << MetricsJsonFile << "\n";
      return 1;
    }
    Out << MetricsRegistry::instance().renderJson() << "\n";
  }
  return 0;
}
