//===- Socket.h - Unix-domain socket utilities -------------------*- C++ -*-===//
///
/// \file
/// Thin RAII wrappers over unix-domain stream sockets for the
/// verification service (src/server): create/bind/listen, connect, and
/// EINTR-safe full-buffer send/receive. Everything reports errors as
/// strings instead of errno so callers can surface them through the
/// DiagnosticEngine. See docs/serving.md.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_SOCKET_H
#define IRDL_SUPPORT_SOCKET_H

#include <cstddef>
#include <string>
#include <string_view>

namespace irdl {

/// Owns one file descriptor; closes it on destruction. Movable, not
/// copyable.
class FileDescriptor {
public:
  FileDescriptor() = default;
  explicit FileDescriptor(int Fd) : Fd(Fd) {}
  FileDescriptor(FileDescriptor &&Other) : Fd(Other.release()) {}
  FileDescriptor &operator=(FileDescriptor &&Other) {
    reset();
    Fd = Other.release();
    return *this;
  }
  FileDescriptor(const FileDescriptor &) = delete;
  FileDescriptor &operator=(const FileDescriptor &) = delete;
  ~FileDescriptor() { reset(); }

  bool isValid() const { return Fd >= 0; }
  int get() const { return Fd; }

  int release() {
    int Result = Fd;
    Fd = -1;
    return Result;
  }

  void reset();

private:
  int Fd = -1;
};

/// Creates a unix-domain stream socket listening on \p Path. An existing
/// socket file at \p Path is unlinked first (the conventional daemon
/// restart behavior). Returns an invalid descriptor and fills \p Error on
/// failure.
FileDescriptor listenUnixSocket(const std::string &Path, std::string &Error,
                                int Backlog = 64);

/// Connects to the unix-domain socket at \p Path.
FileDescriptor connectUnixSocket(const std::string &Path,
                                 std::string &Error);

/// Accepts one connection from \p ListenFd. Returns an invalid descriptor
/// on failure (including when the listening socket was closed or shut
/// down by another thread, the server's stop path).
FileDescriptor acceptConnection(int ListenFd);

/// Writes all \p Data.size() bytes, retrying on EINTR and short writes.
bool sendAll(int Fd, std::string_view Data);

/// Reads exactly \p N bytes into \p Out (resized to \p N). The buffer
/// grows with the bytes received, not with \p N, so a short stream never
/// allocates what it only announced. Returns false on EOF or error; \p Out
/// is then partial. An EOF before the first byte
/// sets \p CleanEof (when given), letting callers distinguish an orderly
/// disconnect from a mid-message truncation.
bool recvAll(int Fd, size_t N, std::string &Out, bool *CleanEof = nullptr);

} // namespace irdl

#endif // IRDL_SUPPORT_SOCKET_H
