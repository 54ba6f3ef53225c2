// Wire-protocol conformance, in two halves. The codec half pins the byte
// layout with golden frames and round-trips every opcode and status through
// Encode + FrameDecoder under adversarial fragmentation — no I/O anywhere.
// The socket half drives a real cluster through its TCP listeners (via
// WireClient and raw frames): KV + CAS + GETL semantics over the wire,
// NotMyVBucket from a mis-routed frame, pipelining, the cluster-map
// bootstrap document, and the port policy (kernel-assigned ports, loud
// double-bind failure, rediscovery after a listener restart). Last, the
// client's wait for a reply (poll, then sleep in recv) against a scripted
// raw listener: a silent peer, a late reply, a reply in two pieces, a peer
// that closes, and a server receive stamp from another clock.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/wire_client.h"
#include "cluster/cluster.h"
#include "cluster/vbucket_map.h"
#include "harness/registry_counter.h"
#include "json/value.h"
#include "net/tcp_server.h"
#include "net/wire/wire.h"

namespace couchkv {
namespace {

namespace wire = net::wire;

// --- Codec: golden bytes -----------------------------------------------

TEST(WireCodec, GoldenSetRequestBytes) {
  wire::Message m = wire::Message::Req(wire::Opcode::kSet);
  m.vbucket = 0x1234;
  m.opaque = 0xAABBCCDD;
  m.cas = 0x1122334455667788ULL;
  wire::PutMutationExtras(&m.extras, 0x01020304, 0x05060708);
  m.key = "key";
  m.value = "val";

  std::string encoded;
  ASSERT_TRUE(wire::Encode(m, &encoded).ok());

  const std::string expected(
      "\x80\x01\x00\x03"                   // magic, SET, key length 3
      "\x08\x00\x12\x34"                   // extras 8, data type 0, vbucket
      "\x00\x00\x00\x0e"                   // total body = 8 + 3 + 3
      "\xaa\xbb\xcc\xdd"                   // opaque
      "\x11\x22\x33\x44\x55\x66\x77\x88"  // cas
      "\x01\x02\x03\x04\x05\x06\x07\x08"  // extras: flags, expiry
      "key"
      "val",
      38);
  EXPECT_EQ(encoded, expected);

  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(encoded);
  wire::Message out;
  Status error = Status::OK();
  ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.magic, wire::kMagicRequest);
  EXPECT_EQ(out.opcode, static_cast<uint8_t>(wire::Opcode::kSet));
  EXPECT_EQ(out.vbucket, 0x1234);
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(out.opaque, 0xAABBCCDDu);
  EXPECT_EQ(out.cas, 0x1122334455667788ULL);
  EXPECT_EQ(out.extras, m.extras);
  EXPECT_EQ(out.key, "key");
  EXPECT_EQ(out.value, "val");
}

TEST(WireCodec, GoldenErrorResponseBytes) {
  wire::Message req = wire::Message::Req(wire::Opcode::kGet);
  req.opaque = 7;
  wire::Message resp = wire::Message::Resp(req, wire::kKeyNotFound);
  resp.value = "missing";

  std::string encoded;
  ASSERT_TRUE(wire::Encode(resp, &encoded).ok());

  const std::string expected(
      "\x81\x00\x00\x00"                   // magic, GET, no key
      "\x00\x00\x00\x01"                   // no extras, data type 0, status
      "\x00\x00\x00\x07"                   // body = 7 ("missing")
      "\x00\x00\x00\x07"                   // opaque echoed
      "\x00\x00\x00\x00\x00\x00\x00\x00"  // cas
      "missing",
      31);
  EXPECT_EQ(encoded, expected);

  wire::FrameDecoder dec(wire::kMagicResponse);
  dec.Feed(encoded);
  wire::Message out;
  Status error = Status::OK();
  ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.status, wire::kKeyNotFound);
  EXPECT_EQ(out.vbucket, 0);
  EXPECT_EQ(out.opaque, 7u);
  EXPECT_EQ(out.value, "missing");
}

// --- Codec: exhaustive opcode / status round-trips ----------------------

TEST(WireCodec, EveryOpcodeRoundTrips) {
  const wire::Opcode kOps[] = {
      wire::Opcode::kGet,       wire::Opcode::kSet,
      wire::Opcode::kAdd,       wire::Opcode::kReplace,
      wire::Opcode::kDelete,    wire::Opcode::kNoop,
      wire::Opcode::kStat,      wire::Opcode::kTouch,
      wire::Opcode::kGetLocked, wire::Opcode::kUnlockKey,
      wire::Opcode::kGetClusterMap, wire::Opcode::kObserveTrace,
  };
  uint32_t opaque = 100;
  for (wire::Opcode op : kOps) {
    SCOPED_TRACE(wire::OpcodeName(static_cast<uint8_t>(op)));
    EXPECT_TRUE(wire::IsKnownOpcode(static_cast<uint8_t>(op)));
    wire::Message m = wire::Message::Req(op);
    m.vbucket = 42;
    m.opaque = opaque++;
    m.cas = 0xfeedface;
    m.key = "some-key";
    m.extras = "\x01\x02\x03\x04";
    m.value = "payload bytes";

    std::string encoded;
    ASSERT_TRUE(wire::Encode(m, &encoded).ok());
    wire::FrameDecoder dec(wire::kMagicRequest);
    dec.Feed(encoded);
    wire::Message out;
    Status error = Status::OK();
    ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.opcode, static_cast<uint8_t>(op));
    EXPECT_EQ(out.vbucket, m.vbucket);
    EXPECT_EQ(out.opaque, m.opaque);
    EXPECT_EQ(out.cas, m.cas);
    EXPECT_EQ(out.extras, m.extras);
    EXPECT_EQ(out.key, m.key);
    EXPECT_EQ(out.value, m.value);
    // Nothing may linger: one frame in, one frame out.
    EXPECT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kNeedMore);
  }
  EXPECT_FALSE(wire::IsKnownOpcode(0xee));
}

TEST(WireCodec, EveryStatusCodeRoundTripsThroughWireStatus) {
  const StatusCode kCodes[] = {
      StatusCode::kOk,          StatusCode::kNotFound,
      StatusCode::kKeyExists,   StatusCode::kLocked,
      StatusCode::kNotMyVBucket, StatusCode::kTempFail,
      StatusCode::kTimeout,     StatusCode::kInvalidArgument,
      StatusCode::kParseError,  StatusCode::kPlanError,
      StatusCode::kIOError,     StatusCode::kCorruption,
      StatusCode::kUnsupported, StatusCode::kAborted,
      StatusCode::kInternal,
  };
  for (StatusCode code : kCodes) {
    SCOPED_TRACE(StatusCodeName(code));
    const uint16_t ws = wire::WireStatusFor(code);
    EXPECT_EQ(wire::StatusFromWire(ws, "msg").code(), code);
  }
  // The protocol statuses with no couchkv twin still map somewhere sane.
  EXPECT_EQ(wire::StatusFromWire(wire::kUnknownCommand, "m").code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(wire::StatusFromWire(wire::kNotStored, "m").code(),
            StatusCode::kInternal);
  EXPECT_EQ(wire::StatusFromWire(0x7777, "m").code(), StatusCode::kInternal);
}

// --- Codec: fragmentation and pipelining --------------------------------

TEST(WireCodec, ReassemblesFramesFedOneByteAtATime) {
  std::string stream;
  for (int i = 0; i < 3; ++i) {
    wire::Message m = wire::Message::Req(wire::Opcode::kSet);
    m.opaque = 10 + i;
    m.key = "k" + std::to_string(i);
    wire::PutMutationExtras(&m.extras, 0, 0);
    m.value = std::string(i * 7, 'v');
    ASSERT_TRUE(wire::Encode(m, &stream).ok());
  }

  wire::FrameDecoder dec(wire::kMagicRequest);
  std::vector<wire::Message> frames;
  wire::Message out;
  Status error = Status::OK();
  for (char c : stream) {
    dec.Feed(std::string_view(&c, 1));
    // Drain everything available after each byte; mid-frame the decoder
    // must keep answering kNeedMore, never error.
    wire::FrameDecoder::Result r;
    while ((r = dec.Next(&out, &error)) ==
           wire::FrameDecoder::Result::kFrame) {
      frames.push_back(out);
    }
    ASSERT_EQ(r, wire::FrameDecoder::Result::kNeedMore)
        << error.ToString() << " after " << frames.size() << " frames";
  }
  ASSERT_EQ(frames.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(frames[i].opaque, 10u + i);
    EXPECT_EQ(frames[i].key, "k" + std::to_string(i));
    EXPECT_EQ(frames[i].value.size(), static_cast<size_t>(i * 7));
  }
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireCodec, DrainsManyPipelinedFramesFromOneFeed) {
  constexpr int kFrames = 64;
  std::string stream;
  for (int i = 0; i < kFrames; ++i) {
    wire::Message m = wire::Message::Req(wire::Opcode::kGet);
    m.opaque = static_cast<uint32_t>(i);
    m.key = "key" + std::to_string(i);
    ASSERT_TRUE(wire::Encode(m, &stream).ok());
  }
  wire::FrameDecoder dec(wire::kMagicRequest);
  dec.Feed(stream);
  wire::Message out;
  Status error = Status::OK();
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.opaque, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(dec.Next(&out, &error), wire::FrameDecoder::Result::kNeedMore);
}

TEST(WireCodec, EncodeRejectsOversizedFields) {
  wire::Message m = wire::Message::Req(wire::Opcode::kSet);
  m.extras = std::string(256, 'x');
  std::string out;
  EXPECT_EQ(wire::Encode(m, &out).code(), StatusCode::kInvalidArgument);

  m = wire::Message::Req(wire::Opcode::kSet);
  m.key = std::string(UINT16_MAX + 1, 'k');
  out.clear();
  EXPECT_EQ(wire::Encode(m, &out).code(), StatusCode::kInvalidArgument);

  m = wire::Message::Req(wire::Opcode::kSet);
  m.key = "k";
  m.value = std::string(wire::kMaxBodyLen, 'v');  // +1 over with the key
  out.clear();
  EXPECT_EQ(wire::Encode(m, &out).code(), StatusCode::kInvalidArgument);
}

// --- Socket conformance over a live cluster -----------------------------

class WireConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    ASSERT_TRUE(cluster_.StartWireServers("default").ok());
    for (cluster::NodeId id : cluster_.node_ids()) {
      ports_.push_back(cluster_.wire_port(id));
    }
    ASSERT_EQ(ports_.size(), 3u);
  }

  cluster::Cluster cluster_;
  std::vector<uint16_t> ports_;
};

TEST_F(WireConformanceTest, SetGetDeleteOverSocket) {
  client::WireClient client(ports_, "default");
  auto put = client.Upsert("wk", "{\"v\":1}");
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_NE(put->cas, 0u);
  EXPECT_NE(put->seqno, 0u);

  auto got = client.Get("wk");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "{\"v\":1}");
  EXPECT_EQ(got->cas, put->cas);

  ASSERT_TRUE(client.Remove("wk").ok());
  EXPECT_TRUE(client.Get("wk").status().IsNotFound());
  EXPECT_TRUE(client.Remove("wk").status().IsNotFound());
}

TEST_F(WireConformanceTest, InsertAndReplaceSemanticsOverSocket) {
  client::WireClient client(ports_, "default");
  EXPECT_TRUE(client.Replace("ik", "v").status().IsNotFound());
  ASSERT_TRUE(client.Insert("ik", "v1").ok());
  EXPECT_TRUE(client.Insert("ik", "v2").status().IsKeyExists());
  ASSERT_TRUE(client.Replace("ik", "v3").ok());
  auto got = client.Get("ik");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v3");
}

TEST_F(WireConformanceTest, CasSemanticsOverSocket) {
  client::WireClient client(ports_, "default");
  auto put = client.Upsert("ck", "v1");
  ASSERT_TRUE(put.ok());

  client::WriteOptions stale;
  stale.cas = put->cas + 1;
  EXPECT_TRUE(client.Upsert("ck", "stomp", stale).status().IsKeyExists());

  client::WriteOptions match;
  match.cas = put->cas;
  auto put2 = client.Upsert("ck", "v2", match);
  ASSERT_TRUE(put2.ok());
  EXPECT_NE(put2->cas, put->cas);

  // A CAS-carrying delete must see the current cas too.
  EXPECT_TRUE(client.Remove("ck", put->cas).status().IsKeyExists());
  EXPECT_TRUE(client.Remove("ck", put2->cas).ok());
}

TEST_F(WireConformanceTest, LockWorkflowOverSocket) {
  client::WireClient client(ports_, "default");
  ASSERT_TRUE(client.Upsert("lk", "v").ok());
  auto locked = client.GetAndLock("lk", 15000);
  ASSERT_TRUE(locked.ok()) << locked.status().ToString();
  EXPECT_EQ(locked->value, "v");

  // A second lock and a lock-blind write both bounce off the lock.
  EXPECT_TRUE(client.GetAndLock("lk", 15000).status().IsLocked());
  EXPECT_TRUE(client.Upsert("lk", "steal").status().IsLocked());

  // The lock cas opens the door; unlock releases it for everyone.
  client::WriteOptions opts;
  opts.cas = locked->cas;
  ASSERT_TRUE(client.Upsert("lk", "mine", opts).ok());

  auto relocked = client.GetAndLock("lk", 15000);
  ASSERT_TRUE(relocked.ok());
  ASSERT_TRUE(client.Unlock("lk", relocked->cas).ok());
  EXPECT_TRUE(client.Upsert("lk", "free").ok());
}

TEST_F(WireConformanceTest, TouchAndStatsOverSocket) {
  client::WireClient client(ports_, "default");
  ASSERT_TRUE(client.Upsert("tk", "v").ok());
  EXPECT_TRUE(client.Touch("tk", 0).ok());
  EXPECT_TRUE(client.Touch("no-such-key", 0).IsNotFound());

  auto stats = client.StatsFor("tk");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto doc = json::Parse(*stats);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->is_object());
}

// Every request-argument rule the server enforces, one malformed frame per
// rule. Each must come back InvalidArguments before the op reaches a
// vBucket, so the node a frame lands on does not matter.
TEST_F(WireConformanceTest, MalformedArgumentsGetInvalidArguments) {
  const std::string k4(4, '\0'), k8(8, '\0'), k12(12, '\0');
  struct Case {
    const char* rule;
    wire::Opcode op;
    std::string key;
    std::string extras;
    uint64_t cas;
  };
  const Case kCases[] = {
      {"ADD with a cas", wire::Opcode::kAdd, "k", k8, 7},
      {"SET without extras", wire::Opcode::kSet, "k", "", 0},
      {"SET with 4-byte extras", wire::Opcode::kSet, "k", k4, 0},
      {"SET with 12-byte extras", wire::Opcode::kSet, "k", k12, 0},
      {"ADD without extras", wire::Opcode::kAdd, "k", "", 0},
      {"REPLACE with 4-byte extras", wire::Opcode::kReplace, "k", k4, 0},
      {"DELETE with extras", wire::Opcode::kDelete, "k", k4, 0},
      {"DELETE with 8-byte extras", wire::Opcode::kDelete, "k", k8, 0},
      {"TOUCH without extras", wire::Opcode::kTouch, "k", "", 0},
      {"TOUCH with 8-byte extras", wire::Opcode::kTouch, "k", k8, 0},
      {"GET with extras", wire::Opcode::kGet, "k", k4, 0},
      {"GETL without extras", wire::Opcode::kGetLocked, "k", "", 0},
      {"GETL with 8-byte extras", wire::Opcode::kGetLocked, "k", k8, 0},
      {"UNLOCK without a cas", wire::Opcode::kUnlockKey, "k", "", 0},
      {"SET with an empty key", wire::Opcode::kSet, "", k8, 0},
      {"ADD with an empty key", wire::Opcode::kAdd, "", k8, 0},
      {"REPLACE with an empty key", wire::Opcode::kReplace, "", k8, 0},
      {"DELETE with an empty key", wire::Opcode::kDelete, "", "", 0},
      {"TOUCH with an empty key", wire::Opcode::kTouch, "", k4, 0},
      {"GET with an empty key", wire::Opcode::kGet, "", "", 0},
      {"GETL with an empty key", wire::Opcode::kGetLocked, "", k4, 0},
      {"UNLOCK with an empty key", wire::Opcode::kUnlockKey, "", "", 7},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.rule);
    wire::Message req = wire::Message::Req(c.op);
    req.key = c.key;
    req.extras = c.extras;
    req.cas = c.cas;
    auto resp = client::RawRoundTrip(ports_[0], req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, wire::kInvalidArguments) << resp->value;
  }
}

TEST_F(WireConformanceTest, MisroutedFrameGetsNotMyVBucket) {
  client::WireClient client(ports_, "default");
  ASSERT_TRUE(client.Upsert("nmvb-key", "v").ok());
  const uint16_t vb = cluster::KeyToVBucket("nmvb-key", client.num_vbuckets());

  // Aim the same GET at every node directly. Exactly one hosts the active
  // vBucket; the replica and the bystander must answer NotMyVBucket, not
  // serve (or invent) data.
  int successes = 0;
  for (uint16_t port : ports_) {
    wire::Message req = wire::Message::Req(wire::Opcode::kGet);
    req.vbucket = vb;
    req.key = "nmvb-key";
    auto resp = client::RawRoundTrip(port, req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp->status == wire::kSuccess) {
      ++successes;
      EXPECT_EQ(resp->value, "v");
    } else {
      EXPECT_EQ(resp->status, wire::kNotMyVBucketErr);
    }
  }
  EXPECT_EQ(successes, 1);
}

TEST_F(WireConformanceTest, PipelinedFramesAnswerInOrder) {
  client::WireClient client(ports_, "default");
  ASSERT_TRUE(client.Upsert("pipe", "v0").ok());
  const uint16_t vb = cluster::KeyToVBucket("pipe", client.num_vbuckets());

  // Find the active node by probing: exactly one port serves this vBucket.
  uint16_t active_port = 0;
  for (uint16_t port : ports_) {
    wire::Message probe = wire::Message::Req(wire::Opcode::kGet);
    probe.vbucket = vb;
    probe.key = "pipe";
    auto resp = client::RawRoundTrip(port, probe);
    ASSERT_TRUE(resp.ok());
    if (resp->status == wire::kSuccess) active_port = port;
  }
  ASSERT_NE(active_port, 0);

  // One burst of alternating SET/GET frames on a single connection. The
  // server must answer every frame, in order, with the opaques echoed.
  std::vector<wire::Message> reqs;
  for (int i = 0; i < 16; ++i) {
    wire::Message m;
    if (i % 2 == 0) {
      m = wire::Message::Req(wire::Opcode::kSet);
      wire::PutMutationExtras(&m.extras, 0, 0);
      m.value = "v" + std::to_string(i);
    } else {
      m = wire::Message::Req(wire::Opcode::kGet);
    }
    m.vbucket = vb;
    m.key = "pipe";
    m.opaque = 1000 + static_cast<uint32_t>(i);
    reqs.push_back(std::move(m));
  }
  auto resps = client::RawPipeline(active_port, reqs);
  ASSERT_TRUE(resps.ok()) << resps.status().ToString();
  ASSERT_EQ(resps->size(), reqs.size());
  for (int i = 0; i < 16; ++i) {
    SCOPED_TRACE(i);
    const wire::Message& r = (*resps)[i];
    EXPECT_EQ(r.opaque, 1000u + i);
    EXPECT_EQ(r.status, wire::kSuccess);
    // Each GET observes the SET pipelined immediately before it.
    if (i % 2 == 1) {
      EXPECT_EQ(r.value, "v" + std::to_string(i - 1));
    }
  }
}

TEST_F(WireConformanceTest, ClusterMapDocumentDescribesTheCluster) {
  wire::Message req = wire::Message::Req(wire::Opcode::kGetClusterMap);
  req.key = "default";
  auto resp = client::RawRoundTrip(ports_[0], req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, wire::kSuccess);

  auto doc = json::Parse(resp->value);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Field("bucket").AsString(), "default");
  EXPECT_EQ(doc->Field("num_vbuckets").AsInt(), cluster::kNumVBuckets);
  ASSERT_TRUE(doc->Field("nodes").is_array());
  const auto& nodes = doc->Field("nodes").AsArray();
  ASSERT_EQ(nodes.size(), 3u);
  for (const auto& n : nodes) {
    const auto id = static_cast<cluster::NodeId>(n.Field("id").AsInt());
    EXPECT_EQ(n.Field("port").AsInt(), cluster_.wire_port(id));
  }
  ASSERT_TRUE(doc->Field("active").is_array());
  EXPECT_EQ(doc->Field("active").AsArray().size(), cluster::kNumVBuckets);
}

TEST_F(WireConformanceTest, KernelAssignsDistinctPorts) {
  // Port policy: everyone binds port 0; the kernel hands out fresh ports,
  // so three listeners in one process can never collide.
  for (size_t i = 0; i < ports_.size(); ++i) {
    EXPECT_NE(ports_[i], 0);
    for (size_t j = i + 1; j < ports_.size(); ++j) {
      EXPECT_NE(ports_[i], ports_[j]);
    }
  }
}

TEST_F(WireConformanceTest, DoubleBindFailsLoudly) {
  // SO_REUSEADDR is deliberately not set: binding a port that is already
  // taken must fail the Start, not silently coexist with the first
  // listener.
  net::TcpServer dup(
      [](const wire::Message& req, const net::RequestContext&) {
        return wire::Message::Resp(req, wire::kSuccess);
      },
      net::TcpServerOptions{.port = ports_[0]});
  Status st = dup.Start();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_FALSE(dup.running());
  EXPECT_EQ(dup.port(), 0);
}

TEST_F(WireConformanceTest, ClientRediscoversRestartedListener) {
  // Bootstrap off node 1 only, so losing node 0's listener cannot strand
  // the client's map fetches.
  client::WireClient client({ports_[1]}, "default");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        client.Upsert("rk" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  // A crash loses what was not yet flushed; the test is about rediscovery,
  // so the writes are persisted first.
  cluster_.Quiesce();

  ASSERT_TRUE(cluster_.CrashNode(0).ok());
  EXPECT_EQ(cluster_.wire_port(0), 0);  // crashed node has no listener
  ASSERT_TRUE(cluster_.RestartNode(0).ok());
  const uint16_t fresh = cluster_.wire_port(0);
  ASSERT_NE(fresh, 0);

  // The client's cached port for node 0 is stale; every key must still be
  // readable through refresh-and-retry.
  for (int i = 0; i < 20; ++i) {
    auto got = client.Get("rk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->value, "v" + std::to_string(i));
  }
  ASSERT_TRUE(client.RefreshMap().ok());
  EXPECT_EQ(client.port_of(0), fresh);
}

// --- The client's wait for a reply, against a scripted listener ------------

using namespace std::chrono_literals;

void WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

std::string Encoded(const wire::Message& m) {
  std::string out;
  EXPECT_TRUE(wire::Encode(m, &out).ok());
  return out;
}

wire::Message GetReplyTo(const wire::Message& req, std::string value) {
  wire::Message resp = wire::Message::Resp(req, wire::kSuccess);
  wire::PutU32BE(&resp.extras, 0);  // flags
  resp.value = std::move(value);
  return resp;
}

// A raw listener on 127.0.0.1 standing in for a one-node cluster. It
// answers GET_CLUSTER_MAP with a one-vBucket map naming itself and hands
// every other request to `serve`, which writes (or withholds) the answer
// and returns false to close the connection. Each connection has its own
// thread, so a pooled connection never holds up a map fetch.
class ScriptedListener {
 public:
  using Serve = std::function<bool(int fd, const wire::Message& req)>;

  explicit ScriptedListener(Serve serve) : serve_(std::move(serve)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    EXPECT_EQ(
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
        0);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  ~ScriptedListener() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // accept returns: no new connections
    acceptor_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : conn_threads_) t.join();
    // Closed only now, so no fd number is reused while a thread runs.
    for (int fd : conn_fds_) ::close(fd);
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lock(mu_);
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
    }
  }

  void ServeConnection(int fd) {
    wire::FrameDecoder decoder(wire::kMagicRequest);
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      wire::Message req;
      Status err = Status::OK();
      while (decoder.Next(&req, &err) == wire::FrameDecoder::Result::kFrame) {
        if (req.opcode != static_cast<uint8_t>(wire::Opcode::kGetClusterMap)) {
          if (!serve_(fd, req)) {
            ::shutdown(fd, SHUT_RDWR);
            return;
          }
          continue;
        }
        wire::Message resp = wire::Message::Resp(req, wire::kSuccess);
        resp.value = R"({"map_version":1,"num_vbuckets":1,"nodes":[{"id":0,)"
                     R"("port":)" +
                     std::to_string(port_) + R"(}],"active":[0]})";
        WriteAll(fd, Encoded(resp));
      }
    }
  }

  const Serve serve_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::mutex mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

// The wire client's reply-polling counters, as deltas over one case.
struct SpinDeltas {
  harness::CounterDelta hits{"wire", "client.spin_hits"};
  harness::CounterDelta misses{"wire", "client.spin_misses"};
};

TEST(WireReplyWait, SilentPeerTimesOutAfterThePoll) {
  ScriptedListener peer([](int, const wire::Message&) { return true; });
  SpinDeltas spin;
  const auto start = std::chrono::steady_clock::now();
  auto resp = client::RawRoundTrip(
      peer.port(), wire::Message::Req(wire::Opcode::kNoop), 300);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsTempFail());
  EXPECT_NE(resp.status().ToString().find("read timed out"), std::string::npos)
      << resp.status().ToString();
  // SO_RCVTIMEO bounds the wait; the poll adds at most its 50 us budget.
  EXPECT_GE(waited, 290ms);
  EXPECT_LT(waited, 800ms);
  EXPECT_EQ(spin.misses(), 1u);
  EXPECT_EQ(spin.hits(), 0u);
}

TEST(WireReplyWait, LateReplyIsAMissAndStillArrives) {
  // 20 ms, far past the 50 us budget: even a yield that loses the CPU for
  // a whole time slice does not make this a hit.
  ScriptedListener peer([](int fd, const wire::Message& req) {
    std::this_thread::sleep_for(20ms);
    WriteAll(fd, Encoded(GetReplyTo(req, "late")));
    return true;
  });
  client::WireClient client({peer.port()}, "default");
  ASSERT_TRUE(client.RefreshMap().ok());
  SpinDeltas spin;
  auto r = client.Get("k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->value, "late");
  EXPECT_EQ(spin.misses(), 1u);
  EXPECT_EQ(spin.hits(), 0u);
}

TEST(WireReplyWait, ReplyInTwoPiecesDecodes) {
  const std::string value(3000, 'h');
  std::atomic<size_t> split{10};  // inside the header, then mid-value
  ScriptedListener peer([&](int fd, const wire::Message& req) {
    const std::string bytes = Encoded(GetReplyTo(req, value));
    const size_t at = split.load();
    WriteAll(fd, std::string_view(bytes).substr(0, at));
    std::this_thread::sleep_for(100us);
    WriteAll(fd, std::string_view(bytes).substr(at));
    return true;
  });
  client::WireClient client({peer.port()}, "default");
  ASSERT_TRUE(client.RefreshMap().ok());
  for (size_t at : {size_t{10}, size_t{1500}}) {
    split = at;
    SpinDeltas spin;
    auto r = client.Get("k");
    ASSERT_TRUE(r.ok()) << "split at " << at << ": " << r.status().ToString();
    EXPECT_EQ(r->value, value) << "split at " << at;
    // One poll per frame, however many reads the frame takes.
    EXPECT_EQ(spin.hits() + spin.misses(), 1u) << "split at " << at;
  }
}

TEST(WireReplyWait, PeerClosingDuringThePollFailsAndTheNextOpReconnects) {
  std::atomic<int> served{0};
  ScriptedListener peer([&](int fd, const wire::Message& req) {
    if (served.fetch_add(1) == 0) return false;  // close, no answer
    WriteAll(fd, Encoded(GetReplyTo(req, "back")));
    return true;
  });
  client::RetryPolicy once;
  once.max_attempts = 1;
  client::WireClient client({peer.port()}, "default", once);
  ASSERT_TRUE(client.RefreshMap().ok());
  auto first = client.Get("k");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsTempFail());
  EXPECT_NE(first.status().ToString().find("connection closed"),
            std::string::npos)
      << first.status().ToString();
  auto second = client.Get("k");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->value, "back");
}

TEST(WireReplyWait, StampsOutsideTheClientWindowGiveNoLegs) {
  // Stamps from a clock the client does not share (a ManualClock's, say),
  // and one so large that the stamp plus the total wraps around.
  const uint64_t stamps[] = {1000, UINT64_MAX - 1000};
  std::atomic<int> served{0};
  ScriptedListener peer([&](int fd, const wire::Message& req) {
    wire::Message resp = GetReplyTo(req, "v");
    wire::ServerTimingFrame st;
    st.recv_nanos = stamps[served.fetch_add(1) % 2];
    st.total_us = 3;
    wire::PutServerTimingFrame(&resp.framing, st);
    WriteAll(fd, Encoded(resp));
    return true;
  });
  client::WireClient client({peer.port()}, "default");
  for (uint64_t stamp : stamps) {
    SCOPED_TRACE(stamp);
    auto r = client.Get("k");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->server.total_us, 3u);
    EXPECT_EQ(r->server.request_leg_us, 0u);
    EXPECT_EQ(r->server.reply_leg_us, 0u);
  }
}

}  // namespace
}  // namespace couchkv
