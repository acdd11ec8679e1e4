//===- Socket.cpp -----------------------------------------------------===//

#include "support/Socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace irdl;

void FileDescriptor::reset() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

namespace {
std::string errnoString() { return std::strerror(errno); }

/// Fills a sockaddr_un for \p Path; rejects paths longer than the
/// sun_path limit (typically 107 bytes) instead of silently truncating.
bool fillAddress(const std::string &Path, sockaddr_un &Addr,
                 std::string &Error) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path '" + Path + "' is empty or longer than " +
            std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}
} // namespace

FileDescriptor irdl::listenUnixSocket(const std::string &Path,
                                      std::string &Error, int Backlog) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Error))
    return FileDescriptor();
  FileDescriptor Fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!Fd.isValid()) {
    Error = "socket: " + errnoString();
    return FileDescriptor();
  }
  // Stale socket files from a previous run would make bind fail.
  ::unlink(Path.c_str());
  if (::bind(Fd.get(), reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    Error = "bind '" + Path + "': " + errnoString();
    return FileDescriptor();
  }
  if (::listen(Fd.get(), Backlog) != 0) {
    Error = "listen '" + Path + "': " + errnoString();
    return FileDescriptor();
  }
  return Fd;
}

FileDescriptor irdl::connectUnixSocket(const std::string &Path,
                                       std::string &Error) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Error))
    return FileDescriptor();
  FileDescriptor Fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!Fd.isValid()) {
    Error = "socket: " + errnoString();
    return FileDescriptor();
  }
  int Rc;
  do {
    Rc = ::connect(Fd.get(), reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr));
  } while (Rc != 0 && errno == EINTR);
  if (Rc != 0) {
    Error = "connect '" + Path + "': " + errnoString();
    return FileDescriptor();
  }
  return Fd;
}

FileDescriptor irdl::acceptConnection(int ListenFd) {
  while (true) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd >= 0)
      return FileDescriptor(Fd);
    if (errno == EINTR)
      continue;
    return FileDescriptor();
  }
}

bool irdl::sendAll(int Fd, std::string_view Data) {
  size_t Sent = 0;
  while (Sent < Data.size()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response must surface as
    // an error return, not a process-killing SIGPIPE.
    ssize_t N = ::send(Fd, Data.data() + Sent, Data.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool irdl::recvAll(int Fd, size_t N, std::string &Out, bool *CleanEof) {
  // N is the peer's claim, not bytes in hand: grow the buffer as data
  // arrives, at most RecvStep ahead, so a header promising megabytes and
  // then a close costs what was actually sent.
  constexpr size_t RecvStep = 64 * 1024;
  if (CleanEof)
    *CleanEof = false;
  Out.clear();
  size_t Got = 0;
  while (Got < N) {
    if (Out.size() == Got)
      Out.resize(Got + std::min(N - Got, RecvStep));
    ssize_t R = ::recv(Fd, Out.data() + Got, Out.size() - Got, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      Out.resize(Got);
      return false;
    }
    if (R == 0) {
      if (CleanEof && Got == 0)
        *CleanEof = true;
      Out.resize(Got);
      return false;
    }
    Got += static_cast<size_t>(R);
  }
  return true;
}
