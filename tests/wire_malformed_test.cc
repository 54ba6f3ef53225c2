// Malformed-input robustness for the wire stack: hand-built bad frames
// (wrong magic, corrupt lengths, truncated headers, unknown opcodes) and
// seeded byte-mutation fuzz of valid frames, both against the pure
// FrameDecoder and against a live TcpServer over real sockets. The
// contract everywhere: a clean protocol error or connection close — never
// a crash, a hang, or a sanitizer report — and the server keeps serving
// well-formed clients afterwards.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "client/wire_client.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "harness/registry_counter.h"
#include "net/tcp_server.h"
#include "net/wire/wire.h"

namespace couchkv {
namespace {

namespace wire = net::wire;

// A well-formed SET frame to corrupt.
std::string ValidSetFrame() {
  wire::Message m = wire::Message::Req(wire::Opcode::kSet);
  m.vbucket = 3;
  m.opaque = 0xC0FFEE;
  wire::PutMutationExtras(&m.extras, 7, 0);
  m.key = "fuzz-key";
  m.value = "fuzz-value-payload";
  std::string out;
  EXPECT_TRUE(wire::Encode(m, &out).ok());
  return out;
}

// Feeds `bytes` to a fresh request-side decoder and drains it. The only
// assertion is termination with a sane result stream: frames, then either
// kNeedMore (truncated input) or one kError (poisoned thereafter).
void DrainDecoder(const std::string& bytes) {
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(bytes);
  wire::Message out;
  Status error = Status::OK();
  for (int i = 0; i < 1000; ++i) {
    wire::FrameDecoder::Result r = dec.Next(&out, &error);
    if (r == wire::FrameDecoder::Result::kFrame) continue;
    if (r == wire::FrameDecoder::Result::kNeedMore) return;
    // kError: poisoned; the next pull must error again, not resync.
    EXPECT_FALSE(error.ok());
    EXPECT_TRUE(dec.poisoned());
    EXPECT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
    return;
  }
  FAIL() << "decoder neither drained nor errored after 1000 pulls";
}

// --- Decoder: hand-built violations -------------------------------------

TEST(WireMalformed, DecoderRejectsBadMagic) {
  std::string frame = ValidSetFrame();
  frame[0] = '\x79';
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(frame);
  wire::Message out;
  Status error = Status::OK();
  ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
  EXPECT_EQ(error.code(), StatusCode::kParseError);
  EXPECT_TRUE(dec.poisoned());
}

TEST(WireMalformed, DecoderRejectsResponseMagicOnServerSide) {
  // A response frame arriving where requests are expected is a violation
  // even though the magic is a legal protocol constant.
  wire::Message m = wire::Message::Resp(
      wire::Message::Req(wire::Opcode::kGet), wire::kSuccess);
  std::string frame;
  ASSERT_TRUE(wire::Encode(m, &frame).ok());
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(frame);
  wire::Message out;
  Status error = Status::OK();
  EXPECT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
}

TEST(WireMalformed, DecoderRejectsNonzeroDataType) {
  std::string frame = ValidSetFrame();
  frame[5] = '\x01';
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(frame);
  wire::Message out;
  Status error = Status::OK();
  ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
  EXPECT_EQ(error.code(), StatusCode::kParseError);
}

TEST(WireMalformed, DecoderRejectsOversizedBodyLengthWithoutBuffering) {
  // A header advertising a body over the cap must error immediately from
  // the header alone — not wait for (or buffer) gigabytes that never come.
  std::string frame = ValidSetFrame().substr(0, wire::kHeaderSize);
  frame[8] = '\x7f';  // total body length = 0x7fffffff
  frame[9] = '\xff';
  frame[10] = '\xff';
  frame[11] = '\xff';
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(frame);
  wire::Message out;
  Status error = Status::OK();
  ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
}

TEST(WireMalformed, DecoderRejectsExtrasAndKeyExceedingBody) {
  std::string frame = ValidSetFrame();
  // Claim a 300-byte key inside the unchanged (smaller) body length.
  frame[2] = '\x01';
  frame[3] = '\x2c';
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(frame);
  wire::Message out;
  Status error = Status::OK();
  ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
}

TEST(WireMalformed, TruncatedHeaderIsNeedMoreNotError) {
  std::string frame = ValidSetFrame();
  for (size_t cut = 0; cut < wire::kHeaderSize; ++cut) {
    wire::FrameDecoder dec(wire::kMagicRequest);
    dec.Feed(std::string_view(frame).substr(0, cut));
    wire::Message out;
    Status error = Status::OK();
    EXPECT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(WireMalformed, PoisonedDecoderIgnoresLaterValidFrames) {
  std::string bad = ValidSetFrame();
  bad[0] = '\x13';
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(bad);
  wire::Message out;
  Status error = Status::OK();
  ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
  // Resynchronizing inside a corrupt byte stream is guesswork; even a
  // pristine frame after the damage must not be served.
  dec.Feed(ValidSetFrame());
  EXPECT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kError);
  EXPECT_TRUE(dec.poisoned());
}

// --- Decoder: seeded mutation fuzz --------------------------------------

TEST(WireMalformed, SeededByteMutationFuzzOverDecoder) {
  const std::string valid = ValidSetFrame();
  Rng rng(20260808);
  for (int iter = 0; iter < 500; ++iter) {
    std::string frame = valid + valid;  // two frames: damage may span both
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      frame[rng.Uniform(frame.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    DrainDecoder(frame);
  }
}

// --- Sockets: a live server must shrug all of this off ------------------

// Standalone echo server: malformed-input handling lives in TcpServer +
// FrameDecoder, so no cluster is needed and the error counters are
// directly observable.
class WireSocketAbuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<net::TcpServer>(
        [](const wire::Message& req, const net::RequestContext&) {
          return wire::Message::Resp(req, wire::kSuccess);
        });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  // Connects, writes `bytes`, then reads until the server closes the
  // connection or 2 s pass. Bounded on purpose: a hang here IS the bug
  // this suite exists to catch.
  void BlastRaw(const std::string& bytes) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (!bytes.empty()) {
      ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(bytes.size()));
    }
    // Half-close: the server sees EOF after our bytes, so a frame left
    // incomplete (or a conn it would otherwise hold open after answering)
    // resolves promptly instead of riding out the recv timeout.
    ::shutdown(fd, SHUT_WR);
    char buf[4096];
    while (true) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;  // closed (0), or timeout/reset (<0): both fine
    }
    ::close(fd);
  }

  // The liveness probe: after any abuse the server must still answer a
  // well-formed client on a fresh connection.
  void ExpectServerStillServes() {
    ASSERT_TRUE(server_->running());
    wire::Message noop = wire::Message::Req(wire::Opcode::kNoop);
    noop.opaque = 424242;
    auto resp = client::RawRoundTrip(server_->port(), noop);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, wire::kSuccess);
    EXPECT_EQ(resp->opaque, 424242u);
  }

  std::unique_ptr<net::TcpServer> server_;
};

TEST_F(WireSocketAbuseTest, HandBuiltBadFramesCloseCleanly) {
  const harness::CounterDelta errors("wire", "server.protocol_errors");

  std::string bad_magic = ValidSetFrame();
  bad_magic[0] = '\x42';
  BlastRaw(bad_magic);

  std::string huge_body = ValidSetFrame().substr(0, wire::kHeaderSize);
  huge_body[8] = '\x7f';
  huge_body[9] = '\xff';
  huge_body[10] = '\xff';
  huge_body[11] = '\xff';
  BlastRaw(huge_body);

  std::string bad_datatype = ValidSetFrame();
  bad_datatype[5] = '\x09';
  BlastRaw(bad_datatype);

  // Truncated header followed by our close: an EOF mid-frame is not a
  // protocol error, just a departed client.
  BlastRaw(ValidSetFrame().substr(0, 10));
  // A connection that opens and says nothing at all.
  BlastRaw("");

  EXPECT_GE(errors(), 3u);
  ExpectServerStillServes();
}

TEST_F(WireSocketAbuseTest, SeededByteMutationFuzzOverSocket) {
  const harness::CounterDelta accepted("wire", "server.connections");
  const std::string valid = ValidSetFrame();
  Rng rng(424242);
  for (int iter = 0; iter < 100; ++iter) {
    std::string frame = valid;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      frame[rng.Uniform(frame.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    // Sometimes truncate as well, so damaged lengths meet early EOF.
    if (rng.OneIn(3)) frame.resize(rng.Uniform(frame.size()) + 1);
    BlastRaw(frame);
  }
  ExpectServerStillServes();
  // Every accepted connection from the loop must have been reaped into a
  // terminal state; total accepted = 100 fuzz + 1 probe (+ SetUp's none).
  EXPECT_GE(accepted(), 101u);
}

TEST_F(WireSocketAbuseTest, PipelinedGarbageAfterValidFramesServesPrefix) {
  // Two good frames then garbage in one burst: both good frames are
  // answered, the garbage kills the connection, the server survives.
  wire::Message a = wire::Message::Req(wire::Opcode::kNoop);
  a.opaque = 1;
  wire::Message b = wire::Message::Req(wire::Opcode::kNoop);
  b.opaque = 2;
  std::string burst;
  ASSERT_TRUE(wire::Encode(a, &burst).ok());
  ASSERT_TRUE(wire::Encode(b, &burst).ok());
  std::string junk = ValidSetFrame();
  junk[0] = '\x55';
  burst += junk;

  const harness::CounterDelta frames("wire", "server.frames");
  const harness::CounterDelta errors("wire", "server.protocol_errors");
  BlastRaw(burst);
  EXPECT_GE(frames(), 2u);
  EXPECT_GE(errors(), 1u);
  ExpectServerStillServes();
}

// Unknown opcodes are a semantic error, not a framing error: the service
// answers kUnknownCommand and the connection stays usable. That dispatch
// lives in the cluster's WireService, so this one runs against a node.
TEST(WireMalformedCluster, UnknownOpcodeAnswersAndConnectionSurvives) {
  cluster::Cluster cluster;
  cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  ASSERT_TRUE(cluster.StartWireServers("default").ok());
  const uint16_t port = cluster.wire_port(0);
  ASSERT_NE(port, 0);

  wire::Message unknown;
  unknown.magic = wire::kMagicRequest;
  unknown.opcode = 0xee;
  unknown.opaque = 5;
  wire::Message noop = wire::Message::Req(wire::Opcode::kNoop);
  noop.opaque = 6;

  // Same connection: the unknown opcode is answered, then the NOOP after
  // it still goes through.
  auto resps = client::RawPipeline(port, {unknown, noop});
  ASSERT_TRUE(resps.ok()) << resps.status().ToString();
  ASSERT_EQ(resps->size(), 2u);
  EXPECT_EQ((*resps)[0].status, wire::kUnknownCommand);
  EXPECT_EQ((*resps)[0].opaque, 5u);
  EXPECT_EQ((*resps)[1].status, wire::kSuccess);
  EXPECT_EQ((*resps)[1].opaque, 6u);
}

}  // namespace
}  // namespace couchkv
