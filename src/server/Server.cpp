//===- Server.cpp -----------------------------------------------------===//

#include "server/Server.h"

#include "bytecode/Bytecode.h"
#include "ir/IRParser.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "support/Metrics.h"
#include "support/Timing.h"

#include <sys/socket.h>
#include <unistd.h>

using namespace irdl;
using namespace irdl::serve;

//===----------------------------------------------------------------------===//
// Server metrics
//===----------------------------------------------------------------------===//

namespace {

/// Server-side request accounting. Recorded unconditionally (not gated on
/// metricsEnabled()): the METRICS endpoint must report served counts even
/// when the host process did not opt into library instrumentation, and
/// the cost is a handful of atomics per request.
void recordRequest(FrameType Type, FrameStatus Status, uint64_t DurationNs) {
  std::string TypeName(frameTypeName(Type));
  std::string_view StatusName = Status == FrameStatus::Ok     ? "ok"
                                : Status == FrameStatus::Fail ? "fail"
                                                              : "protocol_error";
  MetricsRegistry::instance()
      .getCounter("irdl_serve_requests_total",
                  "requests served by irdl_serve",
                  {{"type", TypeName}, {"status", std::string(StatusName)}})
      .inc();
  MetricsRegistry::instance()
      .getHistogram("irdl_serve_request_duration_ns",
                    "end-to-end server-side request handling time",
                    {{"type", TypeName}})
      .record(DurationNs);
}

Gauge &epochGauge() {
  return MetricsRegistry::instance().getGauge(
      "irdl_serve_epoch", "current dialect-registry epoch number");
}

Gauge &activeConnectionsGauge() {
  return MetricsRegistry::instance().getGauge(
      "irdl_serve_active_connections", "currently connected clients");
}

} // namespace

//===----------------------------------------------------------------------===//
// Streaming state
//===----------------------------------------------------------------------===//

/// State of one VERIFY_BEGIN..VERIFY_END stream. Chunk modules are kept
/// alive until the stream closes so recorded diagnostics can still render
/// against their source buffers at VERIFY_END. The chunks live in the
/// stream's own child of the pinned epoch context, so the members are
/// declared (and reset) so that chunks die before their context, and the
/// context before the epoch it reads.
struct VerifyServer::StreamState {
  bool Open = false;
  bool Failed = false;
  unsigned NumChunks = 0;
  std::string Name;
  std::shared_ptr<const Epoch> Pinned;
  std::unique_ptr<IRContext> Ctx;
  std::unique_ptr<SourceMgr> SrcMgr;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::vector<OwningOpRef> Chunks;

  void reset() {
    Open = false;
    Failed = false;
    NumChunks = 0;
    Name.clear();
    Chunks.clear();
    Diags.reset();
    SrcMgr.reset();
    Ctx.reset();
    Pinned.reset();
  }
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

VerifyServer::VerifyServer(ServerOptions Opts) : Opts(std::move(Opts)) {
  epochGauge().set(static_cast<int64_t>(Epochs.currentEpochNumber()));
}

VerifyServer::~VerifyServer() {
  requestStop();
  // serve() joins the connection threads; if it never ran (start failed or
  // the owner stopped before serving), there are none to join — but guard
  // against an owner that destroys the server without returning from
  // serve()'s wind-down (impossible by construction: serve() runs on the
  // owner's thread).
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (std::thread &T : ConnThreads)
    if (T.joinable())
      T.join();
}

size_t VerifyServer::getNumConnectionThreads() const {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  return ConnThreads.size();
}

void VerifyServer::joinFinishedThreadsLocked() {
  // A finished thread filed itself after its last use of ConnMutex, so
  // joining here, with the mutex held, waits only for it to return.
  for (std::list<std::thread>::iterator It : FinishedThreads) {
    It->join();
    ConnThreads.erase(It);
  }
  FinishedThreads.clear();
}

LogicalResult VerifyServer::start(std::string &Error) {
  ListenFd = listenUnixSocket(Opts.SocketPath, Error);
  if (!ListenFd.isValid())
    return failure();
  ListenFdRaw.store(ListenFd.get(), std::memory_order_release);
  return success();
}

void VerifyServer::requestStop() {
  StopFlag.store(true, std::memory_order_release);
  int Fd = ListenFdRaw.load(std::memory_order_acquire);
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void VerifyServer::serve() {
  while (!stopRequested()) {
    FileDescriptor Conn = acceptConnection(ListenFd.get());
    if (!Conn.isValid()) {
      if (stopRequested())
        break;
      continue; // Transient accept failure.
    }
    MetricsRegistry::instance()
        .getCounter("irdl_serve_connections_total",
                    "client connections accepted")
        .inc();
    activeConnectionsGauge().inc();
    std::lock_guard<std::mutex> Lock(ConnMutex);
    joinFinishedThreadsLocked();
    ActiveFds.insert(Conn.get());
    auto It = ConnThreads.emplace(ConnThreads.end());
    *It = std::thread([this, It, Fd = std::move(Conn)]() mutable {
      handleConnection(std::move(Fd));
      std::lock_guard<std::mutex> Lock(ConnMutex);
      FinishedThreads.push_back(It);
    });
  }

  // Wind-down: no new requests on live connections (SHUT_RD lets an
  // in-flight response still reach the client), then join everyone.
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int Fd : ActiveFds)
      ::shutdown(Fd, SHUT_RD);
  }
  std::list<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    ToJoin.swap(ConnThreads);
  }
  for (std::thread &T : ToJoin)
    T.join();
  {
    // Every thread has filed itself by now; the positions point into
    // ToJoin, whose threads are joined.
    std::lock_guard<std::mutex> Lock(ConnMutex);
    FinishedThreads.clear();
  }
  ListenFdRaw.store(-1, std::memory_order_release);
  ListenFd.reset();
  ::unlink(Opts.SocketPath.c_str());
}

//===----------------------------------------------------------------------===//
// Connection loop
//===----------------------------------------------------------------------===//

void VerifyServer::handleConnection(FileDescriptor Fd) {
  StreamState Stream;
  while (true) {
    RequestFrame Request;
    std::string Error;
    ReadOutcome Outcome = readRequestFrame(Fd.get(), Request, Error);
    if (Outcome == ReadOutcome::Disconnect)
      break;
    if (Outcome == ReadOutcome::Error) {
      // Best effort: a client that sent garbage may still be listening.
      writeResponseFrame(Fd.get(), FrameStatus::ProtocolError, Error);
      break;
    }
    uint64_t Begin = steadyNowNs();
    ResponseFrame Response = dispatch(Request, Stream);
    recordRequest(Request.Type, Response.Status, steadyNowNs() - Begin);
    if (!writeResponseFrame(Fd.get(), Response.Status, Response.Payload))
      break;
    if (Response.Status == FrameStatus::ProtocolError)
      break;
    if (Request.Type == FrameType::Shutdown) {
      requestStop();
      break;
    }
  }
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    ActiveFds.erase(Fd.get());
  }
  activeConnectionsGauge().add(-1);
}

ResponseFrame VerifyServer::dispatch(const RequestFrame &Request,
                                     StreamState &Stream) {
  switch (Request.Type) {
  case FrameType::Verify:
    return handleVerify(Request.Payload);
  case FrameType::VerifyBegin:
    return handleVerifyBegin(Request.Payload, Stream);
  case FrameType::VerifyChunk:
    return handleVerifyChunk(Request.Payload, Stream);
  case FrameType::VerifyEnd:
    return handleVerifyEnd(Stream);
  case FrameType::LoadDialect:
    return handleLoadDialect(Request.Payload, /*Reload=*/false);
  case FrameType::ReloadDialect:
    return handleLoadDialect(Request.Payload, /*Reload=*/true);
  case FrameType::Metrics:
    return {FrameStatus::Ok, MetricsRegistry::instance().renderPrometheus()};
  case FrameType::Shutdown:
  case FrameType::Ping:
    return {FrameStatus::Ok, ""};
  }
  return {FrameStatus::ProtocolError, "unhandled frame type"};
}

//===----------------------------------------------------------------------===//
// VERIFY
//===----------------------------------------------------------------------===//

namespace {

/// Materializes a request payload into \p Ctx: textual IR through the
/// parser (buffer registered with \p SrcMgr for caret rendering), `.irbc`
/// through the bytecode reader. Mirrors the irdl_opt input path so the
/// recorded diagnostics are identical. \p Ctx is a request's child of
/// the epoch context. Spec-bearing bytecode is rejected up front: dialects
/// are registered through LOAD_DIALECT, never by a request.
OwningOpRef materializeModule(IRContext &Ctx, std::string_view Name,
                              std::string_view Content, SourceMgr &SrcMgr,
                              DiagnosticEngine &Diags) {
  if (isBytecodeBuffer(Content)) {
    if (bytecodeBufferHasSpecs(Content)) {
      Diags.emitError(std::string(Name) +
                      ": VERIFY bytecode must be module-only; register "
                      "dialect specs through LOAD_DIALECT");
      return OwningOpRef();
    }
    BytecodeReader Reader(Ctx, Diags);
    BytecodeReadResult Result;
    if (failed(Reader.read(Content, Result)))
      return OwningOpRef();
    if (!Result.Module) {
      Diags.emitError(std::string(Name) +
                      ": bytecode buffer contains no IR module");
      return OwningOpRef();
    }
    return std::move(Result.Module);
  }
  return parseSourceString(Ctx, Content, SrcMgr, Diags, std::string(Name));
}

} // namespace

ResponseFrame VerifyServer::handleVerify(std::string_view Payload) {
  std::string_view Name, Content;
  if (!decodeNamedPayload(Payload, Name, Content))
    return {FrameStatus::ProtocolError, "malformed VERIFY payload header"};

  // The module is built in a child of the pinned epoch context and dies
  // before it (reverse declaration order).
  std::shared_ptr<const Epoch> Pinned = Epochs.current();
  IRContext Ctx(*Pinned->Ctx);
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  OwningOpRef M = materializeModule(Ctx, Name, Content, SrcMgr, Diags);
  if (!M)
    return {FrameStatus::Fail, Diags.renderAll()};

  // Byte-identical to irdl_opt with an empty pipeline: PassManager::run
  // verifies the root up front and tags a failure with this exact
  // trailing error (Pass.cpp), and irdl_opt prints renderAll() of an
  // engine that saw nothing else.
  DiagnosticEngine PipelineDiags(&SrcMgr);
  if (failed(verifyOp(M.get(), PipelineDiags))) {
    PipelineDiags.emitError(M->getLoc(),
                            "IR failed to verify before the pipeline");
    return {FrameStatus::Fail, PipelineDiags.renderAll()};
  }
  return {FrameStatus::Ok, ""};
}

ResponseFrame VerifyServer::handleVerifyBegin(std::string_view Payload,
                                              StreamState &Stream) {
  std::string_view Name, Content;
  if (!decodeNamedPayload(Payload, Name, Content))
    return {FrameStatus::ProtocolError,
            "malformed VERIFY_BEGIN payload header"};
  if (Stream.Open)
    return {FrameStatus::ProtocolError,
            "VERIFY_BEGIN inside an open verification stream"};
  Stream.reset();
  Stream.Open = true;
  Stream.Name = std::string(Name);
  Stream.Pinned = Epochs.current();
  Stream.Ctx = std::make_unique<IRContext>(*Stream.Pinned->Ctx);
  Stream.SrcMgr = std::make_unique<SourceMgr>();
  Stream.Diags = std::make_unique<DiagnosticEngine>(Stream.SrcMgr.get());
  return {FrameStatus::Ok, ""};
}

ResponseFrame VerifyServer::handleVerifyChunk(std::string_view Payload,
                                              StreamState &Stream) {
  if (!Stream.Open)
    return {FrameStatus::ProtocolError,
            "VERIFY_CHUNK outside a verification stream"};
  unsigned Index = Stream.NumChunks++;
  // Fail-fast across chunks, mirroring whole-module verification: once a
  // chunk failed, later chunks are acknowledged but not verified (their
  // diagnostics would not exist in a sequential run either).
  if (Stream.Failed)
    return {FrameStatus::Ok, ""};

  std::string ChunkName =
      Stream.Name + ":chunk" + std::to_string(Index);
  OwningOpRef M = materializeModule(*Stream.Ctx, ChunkName, Payload,
                                    *Stream.SrcMgr, *Stream.Diags);
  if (!M) {
    Stream.Failed = true;
    return {FrameStatus::Ok, ""};
  }

  // Verify this chunk's function-like top-level ops now, while the client
  // is still sending later frames.
  std::vector<Operation *> Ops;
  if (M->getNumRegions() != 0 && !M->getRegion(0).empty())
    for (Operation &Op : M->getRegion(0).front())
      Ops.push_back(&Op);
  if (failed(verifyOpsIncremental(Ops, *Stream.Diags)))
    Stream.Failed = true;
  // Keep the chunk (and its source buffer) alive until VERIFY_END: the
  // recorded diagnostics render lazily against the SourceMgr.
  Stream.Chunks.push_back(std::move(M));
  return {FrameStatus::Ok, ""};
}

ResponseFrame VerifyServer::handleVerifyEnd(StreamState &Stream) {
  if (!Stream.Open)
    return {FrameStatus::ProtocolError,
            "VERIFY_END outside a verification stream"};
  ResponseFrame Response{Stream.Failed ? FrameStatus::Fail : FrameStatus::Ok,
                         Stream.Failed ? Stream.Diags->renderAll() : ""};
  Stream.reset();
  return Response;
}

//===----------------------------------------------------------------------===//
// LOAD_DIALECT / RELOAD_DIALECT
//===----------------------------------------------------------------------===//

ResponseFrame VerifyServer::handleLoadDialect(std::string_view Payload,
                                              bool Reload) {
  std::string_view Name, Content;
  if (!decodeNamedPayload(Payload, Name, Content))
    return {FrameStatus::ProtocolError,
            Reload ? "malformed RELOAD_DIALECT payload header"
                   : "malformed LOAD_DIALECT payload header"};
  std::string DiagText;
  LogicalResult Result =
      Reload ? Epochs.reloadDialect(std::string(Name), std::string(Content),
                                    DiagText)
             : Epochs.loadDialect(std::string(Name), std::string(Content),
                                  DiagText);
  if (failed(Result))
    return {FrameStatus::Fail, DiagText};
  uint64_t EpochNumber = Epochs.currentEpochNumber();
  epochGauge().set(static_cast<int64_t>(EpochNumber));
  return {FrameStatus::Ok, std::to_string(EpochNumber)};
}
