//===- ServerTest.cpp - irdl_serve protocol & epoch tests ---------------===//
///
/// In-process coverage of the verification service: protocol framing and
/// error handling, one-shot and streamed verification, hot dialect
/// load/reload with epoch pinning for in-flight streams, concurrent
/// clients, and the METRICS endpoint. Each fixture runs a real
/// VerifyServer on a per-test unix socket with serve() on a background
/// thread — the same code path irdl_serve drives.

#include "bytecode/Bytecode.h"
#include "ir/IRParser.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/File.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace irdl;
using namespace irdl::serve;

namespace {

std::string testSocketPath(const char *Tag) {
  return "/tmp/irdl_server_test." + std::to_string(::getpid()) + "." + Tag +
         ".sock";
}

std::string cmathSource() {
  std::string Buffer, Error;
  EXPECT_TRUE(succeeded(readFileToString(
      std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", Buffer, Error)))
      << Error;
  return Buffer;
}

/// cmath.norm accepting only an f64 result — reloading this over the
/// bundled cmath flips the verdict of NormF32Module.
constexpr const char *StrictCmath = R"(
Dialect cmath {
  Alias !FloatType = !AnyOf<!f32, !f64>
  Type complex {
    Parameters (elementType: !FloatType)
  }
  Operation norm {
    Operands (c: !complex<!f32>)
    Results (res: !f64)
  }
}
)";

/// Valid against bundled cmath (norm: T=f32), invalid against StrictCmath.
constexpr const char *NormF32Module =
    R"(std.func @f(%c: !cmath.complex<f32>) -> f32 {
  %r = "cmath.norm"(%c) : (!cmath.complex<f32>) -> f32
  std.return %r : f32
}
)";

/// Parses against any epoch with cmath loaded but fails verification:
/// cmath.norm wants a !cmath.complex operand, not f32. The offending op
/// sits on line 2.
constexpr const char *BadNormModule =
    R"(std.func @bad(%c: f32) -> f32 {
  %r = "cmath.norm"(%c) : (f32) -> f32
  std.return %r : f32
}
)";

/// Runs serve() on a background thread for the duration of one test.
class ServerFixture {
public:
  explicit ServerFixture(const char *Tag)
      : Server(ServerOptions{testSocketPath(Tag)}) {
    std::string Error;
    if (failed(Server.start(Error))) {
      ADD_FAILURE() << "server start failed: " << Error;
      return;
    }
    Serving = std::thread([this]() { Server.serve(); });
  }

  ~ServerFixture() {
    Server.requestStop();
    if (Serving.joinable())
      Serving.join();
  }

  ServeClient connect() {
    ServeClient Client;
    std::string Error;
    EXPECT_TRUE(succeeded(Client.connect(Server.socketPath(), Error)))
        << Error;
    return Client;
  }

  VerifyServer Server;
  std::thread Serving;
};

TEST(ServerTest, PingAndShutdown) {
  ServerFixture Fixture("ping");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;
  ASSERT_TRUE(succeeded(Client.ping(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok);
  EXPECT_TRUE(Response.Payload.empty());

  ASSERT_TRUE(succeeded(Client.shutdown(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok);
  if (Fixture.Serving.joinable())
    Fixture.Serving.join();
  EXPECT_TRUE(Fixture.Server.stopRequested());
}

TEST(ServerTest, LoadDialectThenVerify) {
  ServerFixture Fixture("verify");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;

  // The boot epoch knows no cmath: the type in the module fails to parse.
  ASSERT_TRUE(
      succeeded(Client.verify("m.mlir", NormF32Module, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  EXPECT_NE(Response.Payload.find("m.mlir:1:"), std::string::npos)
      << Response.Payload;

  ASSERT_TRUE(succeeded(
      Client.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  EXPECT_EQ(Response.Payload, "2"); // boot epoch 1 -> 2

  ASSERT_TRUE(
      succeeded(Client.verify("m.mlir", NormF32Module, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  EXPECT_TRUE(Response.Payload.empty());

  // A broken module reports rendered diagnostics with the buffer name.
  ASSERT_TRUE(
      succeeded(Client.verify("bad.mlir", BadNormModule, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  EXPECT_NE(Response.Payload.find("bad.mlir:2:"), std::string::npos)
      << Response.Payload;
  EXPECT_NE(
      Response.Payload.find("IR failed to verify before the pipeline"),
      std::string::npos)
      << Response.Payload;
}

TEST(ServerTest, DuplicateLoadRejectedReloadAccepted) {
  ServerFixture Fixture("reload");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;

  ASSERT_TRUE(succeeded(
      Client.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  // Same dialect name again: LOAD refuses, RELOAD replaces.
  ASSERT_TRUE(succeeded(
      Client.loadDialect("strict.irdl", StrictCmath, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  EXPECT_NE(Response.Payload.find("already loaded"), std::string::npos)
      << Response.Payload;
  EXPECT_EQ(Fixture.Server.epochs().currentEpochNumber(), 2u);

  ASSERT_TRUE(succeeded(
      Client.reloadDialect("strict.irdl", StrictCmath, Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  EXPECT_EQ(Response.Payload, "3");

  // The module that satisfied bundled cmath fails the strict spec.
  ASSERT_TRUE(
      succeeded(Client.verify("m.mlir", NormF32Module, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail) << Response.Payload;
}

TEST(ServerTest, IdenticalReloadIsDeduplicated) {
  ServerFixture Fixture("dedup");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;

  ASSERT_TRUE(succeeded(
      Client.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  std::shared_ptr<const Epoch> Before = Fixture.Server.epochs().current();

  // Byte-identical content: the content-hash dedup answers Ok with the
  // unchanged epoch number and publishes no new epoch at all.
  ASSERT_TRUE(succeeded(
      Client.reloadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  EXPECT_EQ(Response.Payload, "2");
  EXPECT_EQ(Fixture.Server.epochs().current().get(), Before.get());

  // Actually different content still rebuilds.
  ASSERT_TRUE(succeeded(
      Client.reloadDialect("cmath.irdl", StrictCmath, Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  EXPECT_EQ(Response.Payload, "3");
  EXPECT_NE(Fixture.Server.epochs().current().get(), Before.get());
}

TEST(ServerTest, FailedReloadKeepsPreviousEpoch) {
  ServerFixture Fixture("badreload");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;

  ASSERT_TRUE(succeeded(
      Client.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  ASSERT_TRUE(succeeded(Client.reloadDialect(
      "broken.irdl", "Dialect cmath { Operation oops {", Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  EXPECT_FALSE(Response.Payload.empty());
  EXPECT_EQ(Fixture.Server.epochs().currentEpochNumber(), 2u);

  // The previous epoch still serves.
  ASSERT_TRUE(
      succeeded(Client.verify("m.mlir", NormF32Module, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
}

TEST(ServerTest, CyclicConstraintVariablesAreRejected) {
  ServerFixture Fixture("cyclicvars");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;

  // Unguarded variable cycles would overflow the verifier's stack on the
  // first use; the load must fail cleanly and the server keep serving.
  for (const char *Vars : {"!T: !T", "!T: !U, !U: !T",
                           "!T: !AnyOf<!T, !f32>"}) {
    std::string Spec = std::string("Dialect cy { Operation op { "
                                   "ConstraintVar (") +
                       Vars + ") Operands (x: !T) } }";
    ASSERT_TRUE(
        succeeded(Client.loadDialect("cy.irdl", Spec, Response, Error)))
        << Error;
    EXPECT_EQ(Response.Status, FrameStatus::Fail) << Vars;
    EXPECT_NE(Response.Payload.find("refers to itself"), std::string::npos)
        << Response.Payload;

    ASSERT_TRUE(succeeded(Client.ping(Response, Error))) << Error;
    EXPECT_EQ(Response.Status, FrameStatus::Ok);
  }

  // A guarded self-reference is legal and verifies.
  ASSERT_TRUE(succeeded(Client.loadDialect("gr.irdl", R"(
    Dialect gr {
      Type box {
        Parameters (elem: !AnyType)
      }
      Operation op {
        ConstraintVar (!T: !AnyOf<!f32, !box<!T>>)
        Operands (x: !T)
      }
    }
  )",
                                           Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  ASSERT_TRUE(succeeded(Client.verify(
      "m.mlir",
      "std.func @f(%x: !gr.box<!gr.box<f32>>) {\n"
      "  \"gr.op\"(%x) : (!gr.box<!gr.box<f32>>) -> ()\n"
      "  std.return\n"
      "}\n",
      Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
}

TEST(ServerTest, StreamedVerifyPinsEpochAcrossReload) {
  ServerFixture Fixture("pin");
  ServeClient Streamer = Fixture.connect();
  ServeClient Admin = Fixture.connect();
  ResponseFrame Response;
  std::string Error;

  ASSERT_TRUE(succeeded(
      Admin.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  ASSERT_TRUE(succeeded(Streamer.verifyBegin("s.mlir", Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok);
  ASSERT_TRUE(
      succeeded(Streamer.verifyChunk(NormF32Module, Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok);

  // Hot-reload mid-stream: the stream stays pinned to epoch 2; new
  // requests see epoch 3.
  ASSERT_TRUE(succeeded(
      Admin.reloadDialect("strict.irdl", StrictCmath, Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  ASSERT_TRUE(
      succeeded(Streamer.verifyChunk(NormF32Module, Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok);
  ASSERT_TRUE(succeeded(Streamer.verifyEnd(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  ASSERT_TRUE(
      succeeded(Admin.verify("m.mlir", NormF32Module, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail) << Response.Payload;
}

TEST(ServerTest, VerifyPinsOldEpochsWhileReloadsPublishNewOnes) {
  // Every RELOAD_DIALECT below publishes a new epoch with its own specs,
  // and the previous epoch's specs are freed once no request pins it.
  // One connection keeps verifying meanwhile, and a stream stays pinned
  // to the first epoch throughout; the sanitizer jobs check that no
  // request reads spec storage another thread frees.
  ServerFixture Fixture("epochs");
  ServeClient Admin = Fixture.connect();
  ServeClient Verifier = Fixture.connect();
  ServeClient Streamer = Fixture.connect();
  ResponseFrame Response;
  std::string Error;

  ASSERT_TRUE(succeeded(
      Admin.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  std::weak_ptr<const Epoch> First = Fixture.Server.epochs().current();
  uint64_t FirstNumber = Fixture.Server.epochs().currentEpochNumber();

  ASSERT_TRUE(succeeded(Streamer.verifyBegin("s.mlir", Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok);
  ASSERT_TRUE(
      succeeded(Streamer.verifyChunk(NormF32Module, Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok);

  constexpr int NumReloads = 20;
  std::atomic<bool> Reloading{true};
  std::atomic<unsigned> ReloadFailures{0};
  std::thread Reloads([&]() {
    for (int I = 0; I != NumReloads; ++I) {
      // The same dialect in different text, so no reload is deduplicated.
      std::string Source =
          cmathSource() + "// reload " + std::to_string(I) + "\n";
      ResponseFrame R;
      std::string E;
      if (failed(Admin.reloadDialect("cmath.irdl", Source, R, E)) ||
          R.Status != FrameStatus::Ok)
        ++ReloadFailures;
    }
    Reloading = false;
  });
  unsigned Verifies = 0;
  while (Reloading || Verifies < 2 * NumReloads) {
    ASSERT_TRUE(succeeded(
        Verifier.verify("ok.mlir", NormF32Module, Response, Error)))
        << Error;
    EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
    ASSERT_TRUE(succeeded(
        Verifier.verify("bad.mlir", BadNormModule, Response, Error)))
        << Error;
    EXPECT_EQ(Response.Status, FrameStatus::Fail) << Response.Payload;
    Verifies += 2;
  }
  Reloads.join();
  EXPECT_EQ(ReloadFailures.load(), 0u);
  EXPECT_EQ(Fixture.Server.epochs().currentEpochNumber(),
            FirstNumber + NumReloads);

  // The stream still runs against the first epoch, which it pins.
  EXPECT_FALSE(First.expired());
  ASSERT_TRUE(
      succeeded(Streamer.verifyChunk(NormF32Module, Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok);
  ASSERT_TRUE(succeeded(Streamer.verifyEnd(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
}

TEST(ServerTest, StreamFailFastAcrossChunks) {
  ServerFixture Fixture("stream");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;
  ASSERT_TRUE(succeeded(
      Client.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  ASSERT_TRUE(succeeded(Client.verifyBegin("s.mlir", Response, Error)))
      << Error;
  ASSERT_TRUE(succeeded(Client.verifyChunk(BadNormModule, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok); // verdict comes at END
  // Later chunks are acknowledged but skipped (fail-fast).
  ASSERT_TRUE(succeeded(Client.verifyChunk(NormF32Module, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok);
  ASSERT_TRUE(succeeded(Client.verifyEnd(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  // Diagnostics carry the per-chunk buffer name; nothing from chunk 1.
  EXPECT_NE(Response.Payload.find("s.mlir:chunk0:2:"), std::string::npos)
      << Response.Payload;
  EXPECT_EQ(Response.Payload.find("chunk1"), std::string::npos)
      << Response.Payload;
}

TEST(ServerTest, StreamMisuseIsProtocolError) {
  ServerFixture Fixture("misuse");
  {
    ServeClient Client = Fixture.connect();
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(succeeded(Client.verifyChunk("x", Response, Error)))
        << Error;
    EXPECT_EQ(Response.Status, FrameStatus::ProtocolError);
    // The server closes the connection after a protocol error.
    EXPECT_TRUE(failed(Client.ping(Response, Error)));
  }
  {
    ServeClient Client = Fixture.connect();
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(succeeded(Client.verifyEnd(Response, Error))) << Error;
    EXPECT_EQ(Response.Status, FrameStatus::ProtocolError);
  }
  {
    // Double VERIFY_BEGIN.
    ServeClient Client = Fixture.connect();
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(succeeded(Client.verifyBegin("a", Response, Error)))
        << Error;
    ASSERT_EQ(Response.Status, FrameStatus::Ok);
    ASSERT_TRUE(succeeded(Client.verifyBegin("b", Response, Error)))
        << Error;
    EXPECT_EQ(Response.Status, FrameStatus::ProtocolError);
  }
  {
    // Truncated named-payload header.
    ServeClient Client = Fixture.connect();
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(
        succeeded(Client.call(FrameType::Verify, "", Response, Error)))
        << Error;
    EXPECT_EQ(Response.Status, FrameStatus::ProtocolError);
  }
}

TEST(ServerTest, TooDeepVerifyIsAnsweredAndTheConnectionServes) {
  // Ten thousand nested regions in one frame used to overflow the parsing
  // connection thread's stack and take the server down.
  ServerFixture Fixture("deep");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;
  std::string Deep;
  for (unsigned I = 0; I != 10000; ++I)
    Deep += "\"std.func\"() ({\n";
  ASSERT_TRUE(succeeded(Client.verify("deep.mlir", Deep, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  EXPECT_NE(Response.Payload.find("deep.mlir:" +
                                  std::to_string(MaxNestingDepth + 1) +
                                  ":15: error: regions nested deeper than " +
                                  std::to_string(MaxNestingDepth)),
            std::string::npos)
      << Response.Payload.substr(0, 500);

  ASSERT_TRUE(succeeded(Client.ping(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok);
  ASSERT_TRUE(succeeded(Client.verify(
      "ok.mlir", "std.func @f() {\n  std.return\n}\n", Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
}

TEST(ServerTest, TooDeepLoadDialectIsAnsweredAndTheConnectionServes) {
  // A spec nesting 20,000 constraint levels used to overflow the loading
  // connection thread's stack and take the server down.
  ServerFixture Fixture("deepspec");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;
  std::string Deep = "Dialect deep { Operation o { Operands (x: ";
  for (unsigned I = 0; I != 20000; ++I)
    Deep += "!AnyOf<";
  Deep += "!f32" + std::string(20000, '>') + ") } }";
  ASSERT_TRUE(
      succeeded(Client.loadDialect("deep.irdl", Deep, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  EXPECT_NE(Response.Payload.find("deep.irdl:1:" +
                                  std::to_string(43 + 7 * MaxNestingDepth) +
                                  ": error: constraints nested deeper than " +
                                  std::to_string(MaxNestingDepth)),
            std::string::npos)
      << Response.Payload.substr(0, 500);
  // The spec is one 160 KB line; the excerpt shows a window of it.
  EXPECT_LT(Response.Payload.size(), 2048u) << Response.Payload.size();
  EXPECT_EQ(Fixture.Server.epochs().currentEpochNumber(), 1u);

  ASSERT_TRUE(succeeded(Client.ping(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok);
  ASSERT_TRUE(succeeded(
      Client.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  ASSERT_TRUE(
      succeeded(Client.verify("m.mlir", NormF32Module, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
}

TEST(ServerTest, UnknownFrameTypeClosesConnection) {
  ServerFixture Fixture("unknown");
  std::string Error;
  FileDescriptor Fd =
      connectUnixSocket(Fixture.Server.socketPath(), Error);
  ASSERT_TRUE(Fd.isValid()) << Error;
  // Type 99 with an empty payload.
  std::string Frame("\x63\x00\x00\x00\x00", 5);
  ASSERT_TRUE(sendAll(Fd.get(), Frame));
  ResponseFrame Response;
  ASSERT_EQ(readResponseFrame(Fd.get(), Response, Error), ReadOutcome::Ok)
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::ProtocolError);
  std::string Rest;
  EXPECT_FALSE(recvAll(Fd.get(), 1, Rest)); // closed
}

TEST(ServerTest, OversizedFrameIsProtocolError) {
  ServerFixture Fixture("oversize");
  std::string Error;
  FileDescriptor Fd =
      connectUnixSocket(Fixture.Server.socketPath(), Error);
  ASSERT_TRUE(Fd.isValid()) << Error;
  // PING with a 4 GiB-1 length prefix: rejected before any allocation.
  std::string Header("\x09\xff\xff\xff\xff", 5);
  ASSERT_TRUE(sendAll(Fd.get(), Header));
  ResponseFrame Response;
  ASSERT_EQ(readResponseFrame(Fd.get(), Response, Error), ReadOutcome::Ok)
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::ProtocolError);
  EXPECT_NE(Response.Payload.find("exceeds"), std::string::npos)
      << Response.Payload;
}

TEST(ServerTest, TruncatedFrameAllocatesOnlyWhatArrived) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  FileDescriptor Reader(Fds[0]), Writer(Fds[1]);
  // A PING header claiming a 200 MiB payload, then 10 bytes, then close.
  std::string Message("\x09\x00\x00\x80\x0c", 5);
  Message.append(10, 'x');
  ASSERT_TRUE(sendAll(Writer.get(), Message));
  Writer.reset();

  RequestFrame Request;
  std::string Error;
  EXPECT_EQ(readRequestFrame(Reader.get(), Request, Error),
            ReadOutcome::Error);
  EXPECT_NE(Error.find("truncated frame payload (got 10 of 209715200"),
            std::string::npos)
      << Error;
  EXPECT_LT(Request.Payload.capacity(), size_t(1) << 20);
}

TEST(ServerTest, FinishedConnectionThreadsAreJoined) {
  ServerFixture Fixture("reap");
  auto PingOnce = [&Fixture]() {
    ServeClient Client = Fixture.connect();
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(succeeded(Client.ping(Response, Error))) << Error;
    ASSERT_EQ(Response.Status, FrameStatus::Ok);
  };
  for (int I = 0; I != 100; ++I)
    PingOnce();
  // Finished threads are joined only on accept, and the last
  // connections' threads may still be winding down, so keep connecting
  // until only the newest ones are left. Without joining, the count
  // stays above 100 and the deadline passes.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (Fixture.Server.getNumConnectionThreads() > 2 &&
         std::chrono::steady_clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    PingOnce();
  }
  EXPECT_LE(Fixture.Server.getNumConnectionThreads(), 2u);
}

TEST(ServerTest, MetricsEndpointReportsServedRequests) {
  ServerFixture Fixture("metrics");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;
  ASSERT_TRUE(succeeded(Client.ping(Response, Error))) << Error;
  ASSERT_TRUE(succeeded(Client.metrics(Response, Error))) << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok);
  EXPECT_NE(Response.Payload.find("irdl_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(
      Response.Payload.find(
          "irdl_serve_requests_total{status=\"ok\",type=\"PING\"}"),
      std::string::npos)
      << Response.Payload;
  EXPECT_NE(Response.Payload.find("irdl_serve_request_duration_ns"),
            std::string::npos);
  EXPECT_NE(Response.Payload.find("irdl_serve_epoch"), std::string::npos);
}

TEST(ServerTest, ConcurrentClients) {
  ServerFixture Fixture("concurrent");
  {
    ServeClient Admin = Fixture.connect();
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(succeeded(
        Admin.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
        << Error;
    ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  }

  constexpr unsigned NumClients = 8;
  constexpr unsigned RequestsPerClient = 16;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != NumClients; ++T)
    Threads.emplace_back([&, T]() {
      ServeClient Client;
      std::string Error;
      if (failed(Client.connect(Fixture.Server.socketPath(), Error))) {
        ++Failures;
        return;
      }
      for (unsigned I = 0; I != RequestsPerClient; ++I) {
        ResponseFrame Response;
        std::string Name =
            "c" + std::to_string(T) + "_" + std::to_string(I) + ".mlir";
        if (failed(Client.verify(Name, NormF32Module, Response, Error)) ||
            Response.Status != FrameStatus::Ok)
          ++Failures;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}

TEST(ServerTest, BytecodeVerifyRejectsSpecPayloads) {
  ServerFixture Fixture("bcspecs");
  ServeClient Client = Fixture.connect();
  ResponseFrame Response;
  std::string Error;
  ASSERT_TRUE(succeeded(
      Client.loadDialect("cmath.irdl", cmathSource(), Response, Error)))
      << Error;
  ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  // Build a spec-bearing .irbc off to the side.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module = loadIRDL(Ctx, cmathSource(), SrcMgr, Diags);
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  BytecodeWriter Writer;
  Writer.addModuleSpecs(*Module);
  std::string SpecBuffer = Writer.write();
  ASSERT_TRUE(bytecodeBufferHasSpecs(SpecBuffer));

  ASSERT_TRUE(
      succeeded(Client.verify("specs.irbc", SpecBuffer, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Fail);
  EXPECT_NE(Response.Payload.find("module-only"), std::string::npos)
      << Response.Payload;

  // But the same buffer is a fine LOAD_DIALECT payload...
  ASSERT_TRUE(succeeded(
      Client.reloadDialect("cmath.irbc", SpecBuffer, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;

  // ...and a module-only buffer is a fine VERIFY payload.
  OwningOpRef M = parseSourceString(Ctx, NormF32Module, SrcMgr, Diags,
                                    "m.mlir");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  BytecodeWriter ModuleWriter;
  ModuleWriter.setModule(M.get());
  std::string ModuleBuffer = ModuleWriter.write();
  ASSERT_FALSE(bytecodeBufferHasSpecs(ModuleBuffer));
  ASSERT_TRUE(
      succeeded(Client.verify("m.irbc", ModuleBuffer, Response, Error)))
      << Error;
  EXPECT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
}

TEST(ServerTest, VerifyInternsNothingIntoTheEpoch) {
  // Each request brings an integer type of a fresh width and signedness
  // (i/si/ui of widths 1..128, in turn) and a constant of the request's
  // index, reduced below 2^(width-1) so that it fits every signedness.
  // Requests build their IR in a child of the epoch context, so none of
  // it is interned into the epoch.
  ServerFixture Fixture("nointern");
  ServeClient Client = Fixture.connect();
  std::shared_ptr<const Epoch> Pinned = Fixture.Server.epochs().current();
  const size_t EpochTypes = Pinned->Ctx->getNumUniquedTypes();
  const size_t EpochAttrs = Pinned->Ctx->getNumUniquedAttrs();

  constexpr unsigned NumRequests = 1000;
  const char *Prefixes[] = {"i", "si", "ui"};
  unsigned NumOk = 0;
  for (unsigned I = 0; I != NumRequests; ++I) {
    unsigned Width = 1 + I % 128;
    std::string Ty = Prefixes[(I / 128) % 3] + std::to_string(Width);
    uint64_t Value = I % (uint64_t(1) << std::min(Width - 1, 62u));
    std::string Text = "std.func @f(%a: " + Ty + ") -> " + Ty + " {\n" +
                       "  %c = std.constant " + std::to_string(Value) +
                       " : " + Ty + "\n" +
                       "  std.return %c : " + Ty + "\n}\n";
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(succeeded(Client.verify("w.mlir", Text, Response, Error)))
        << Error;
    NumOk += Response.Status == FrameStatus::Ok;
  }
  EXPECT_EQ(NumOk, NumRequests);
  EXPECT_EQ(Fixture.Server.epochs().current(), Pinned);
  EXPECT_EQ(Pinned->Ctx->getNumUniquedTypes(), EpochTypes);
  EXPECT_EQ(Pinned->Ctx->getNumUniquedAttrs(), EpochAttrs);
}

} // namespace
