//===- Server.h - The irdl_serve verification daemon -------------*- C++ -*-===//
///
/// \file
/// The persistent verification service: a unix-domain socket listener
/// serving the serve::Protocol frame catalogue against a warm, epoch-
/// versioned dialect registry. Each connection gets its own thread; each
/// request pins the then-current Epoch, so verification always runs
/// against a fully built, immutable IRContext while LOAD_DIALECT /
/// RELOAD_DIALECT publish new epochs concurrently. One-shot VERIFY
/// responses replay diagnostics byte-identically to an `irdl_opt` run
/// over the same input (locked by ServeDifferentialTest); streamed
/// verification (VERIFY_BEGIN/CHUNK/END) verifies each chunk's top-level
/// ops as the frames arrive. See docs/serving.md.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SERVER_SERVER_H
#define IRDL_SERVER_SERVER_H

#include "server/EpochRegistry.h"
#include "server/Protocol.h"
#include "support/Socket.h"

#include <atomic>
#include <list>
#include <set>
#include <thread>

namespace irdl {
namespace serve {

struct ServerOptions {
  /// Filesystem path of the unix-domain listening socket.
  std::string SocketPath;
};

class VerifyServer {
public:
  explicit VerifyServer(ServerOptions Opts);
  ~VerifyServer();
  VerifyServer(const VerifyServer &) = delete;
  VerifyServer &operator=(const VerifyServer &) = delete;

  /// Binds and listens on the socket. Must be called (successfully)
  /// before serve().
  LogicalResult start(std::string &Error);

  /// Runs the accept loop on the calling thread until requestStop() (or a
  /// SHUTDOWN request) fires, then winds down: stops reading on active
  /// connections (in-flight responses still flush), joins every
  /// connection thread, and unlinks the socket file. Threads of closed
  /// connections are joined as the next connection is accepted, so a
  /// long-running server holds threads only for its live connections.
  void serve();

  /// Asks the accept loop to exit. Async-signal-safe: an atomic store
  /// plus shutdown(2) on the listening socket — callable straight from a
  /// SIGINT/SIGTERM handler.
  void requestStop();

  bool stopRequested() const {
    return StopFlag.load(std::memory_order_acquire);
  }

  /// The dialect registry served by LOAD_DIALECT/RELOAD_DIALECT.
  EpochRegistry &epochs() { return Epochs; }

  const std::string &socketPath() const { return Opts.SocketPath; }

  /// Connection threads not yet joined: the live connections plus any
  /// that closed since the last accept (tests).
  size_t getNumConnectionThreads() const;

private:
  /// Per-connection streaming-verification state (VERIFY_BEGIN..END).
  struct StreamState;

  void handleConnection(FileDescriptor Fd);
  ResponseFrame dispatch(const RequestFrame &Request, StreamState &Stream);
  ResponseFrame handleVerify(std::string_view Payload);
  ResponseFrame handleVerifyBegin(std::string_view Payload,
                                  StreamState &Stream);
  ResponseFrame handleVerifyChunk(std::string_view Payload,
                                  StreamState &Stream);
  ResponseFrame handleVerifyEnd(StreamState &Stream);
  ResponseFrame handleLoadDialect(std::string_view Payload, bool Reload);

  ServerOptions Opts;
  EpochRegistry Epochs;

  std::atomic<bool> StopFlag{false};
  /// Raw listening fd mirrored into an atomic so requestStop() can
  /// shutdown(2) it from a signal handler.
  std::atomic<int> ListenFdRaw{-1};
  FileDescriptor ListenFd;

  /// Joins the threads in FinishedThreads. Caller holds ConnMutex.
  void joinFinishedThreadsLocked();

  /// Active connection fds + threads; guarded by ConnMutex. A connection
  /// thread files its own list position in FinishedThreads as its last
  /// act; serve() joins those on each accept and the rest at wind-down.
  mutable std::mutex ConnMutex;
  std::set<int> ActiveFds;
  std::list<std::thread> ConnThreads;
  std::vector<std::list<std::thread>::iterator> FinishedThreads;
};

} // namespace serve
} // namespace irdl

#endif // IRDL_SERVER_SERVER_H
