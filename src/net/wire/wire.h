// The memcached-style binary wire protocol (paper §3.1: the data service
// speaks "the memcached binary protocol" to clients). This module is the
// pure half of the wire stack: byte layout, opcode and status tables, an
// encoder, and an incremental frame decoder. It performs no I/O — buffers
// in, messages out — so every parsing decision is unit-testable and
// fuzzable without a socket (tests/wire_protocol_test.cc,
// tests/wire_malformed_test.cc).
//
// Frame layout (24-byte header, all multi-byte fields big-endian, matching
// memcached's binary protocol):
//
//   offset  size  request            response
//   0       1     magic 0x80         magic 0x81
//   1       1     opcode             opcode (echoed)
//   2       2     key length         key length
//   4       1     extras length      extras length
//   5       1     data type (0)      data type (0)
//   6       2     vbucket id         status
//   8       4     total body length  total body length
//   12      4     opaque             opaque (echoed)
//   16      8     cas                cas
//   24      ...   extras, key, value
//
// total body length = extras length + key length + value length. A decoder
// rejects (never crashes on) any violation: wrong magic, nonzero data type,
// body longer than kMaxBodyLen, or extras+key exceeding the body.
//
// Framed extras (memcached "flexible framing"): the alternative magics 0x08
// (request) / 0x18 (response) re-purpose the header's key-length field:
//
//   offset  size  flex request       flex response
//   2       1     framing extras len framing extras len
//   3       1     key length         key length
//
// and the body becomes framing-extras + extras + key + value. The framing
// area is a sequence of TLV entries (1-byte tag, 1-byte length, payload);
// unknown tags are skipped, so either side may add entries without breaking
// the other — that is the whole point. Classic-magic frames remain valid
// forever: a server answers classic with classic and flex with flex, so an
// old client never sees a magic it does not know.
#ifndef COUCHKV_NET_WIRE_WIRE_H_
#define COUCHKV_NET_WIRE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace couchkv::net::wire {

constexpr uint8_t kMagicRequest = 0x80;
constexpr uint8_t kMagicResponse = 0x81;
// Flexible-framing twins of the classic magics (memcached alt-magic
// numbering). A flex frame carries a framed-extras area before the regular
// extras; everything else is unchanged.
constexpr uint8_t kMagicFlexRequest = 0x08;
constexpr uint8_t kMagicFlexResponse = 0x18;
constexpr size_t kHeaderSize = 24;

// Upper bound on total body length (extras + key + value). Couchbase caps
// values at 20 MiB; anything larger in a header is a protocol error, which
// keeps a malicious length field from making the decoder buffer gigabytes.
constexpr uint32_t kMaxBodyLen = 20u << 20;

// Largest key the protocol admits (memcached's limit).
constexpr size_t kMaxKeyLen = 250;

// Opcodes. Values follow memcached / Couchbase data protocol numbering
// where an equivalent command exists.
enum class Opcode : uint8_t {
  kGet = 0x00,
  kSet = 0x01,
  kAdd = 0x02,
  kReplace = 0x03,
  kDelete = 0x04,
  kNoop = 0x0a,
  kStat = 0x10,
  kTouch = 0x1c,
  kGetLocked = 0x94,   // GETL: pessimistic lock (paper §3.1.1)
  kUnlockKey = 0x95,
  kGetClusterMap = 0xb5,  // vBucket map + node wire ports, JSON body
  kObserveTrace = 0xb6,   // flight-recorder dump, JSON body (key = trace id)
};

bool IsKnownOpcode(uint8_t op);
const char* OpcodeName(uint8_t op);

// Response status codes (the 2-byte field at offset 6). Values follow
// memcached's binary-protocol status table where one exists; the long tail
// of the couchkv Status taxonomy extends it above 0x0086.
enum WireStatus : uint16_t {
  kSuccess = 0x0000,
  kKeyNotFound = 0x0001,
  kKeyExistsErr = 0x0002,
  kInvalidArguments = 0x0004,
  kNotStored = 0x0005,
  kNotMyVBucketErr = 0x0007,
  kLockedErr = 0x0009,
  kUnknownCommand = 0x0081,
  kUnsupportedErr = 0x0083,
  kInternalError = 0x0084,
  kTempFailErr = 0x0086,
  kTimeoutErr = 0x0088,
  kIOErrorErr = 0x0089,
  kCorruptionErr = 0x008a,
  kAbortedErr = 0x008b,
  kParseErrorErr = 0x008c,
  kPlanErrorErr = 0x008d,
};

// Status taxonomy <-> wire status. Every StatusCode has a distinct wire
// value, so StatusFromWire(WireStatusFor(code)) == code — the round-trip
// property tests/wire_protocol_test.cc asserts for the whole enum.
uint16_t WireStatusFor(StatusCode code);
// `message` becomes the Status message (error responses carry the message
// text as their value). Unknown wire values map to kInternal.
Status StatusFromWire(uint16_t status, std::string message);

// One decoded frame, request or response (layout is shared; the magic byte
// selects which interpretation of the field at offset 6 applies).
struct Message {
  uint8_t magic = kMagicRequest;
  uint8_t opcode = 0;
  uint16_t vbucket = 0;  // requests only
  uint16_t status = 0;   // responses only
  uint32_t opaque = 0;
  uint64_t cas = 0;
  // Framed-extras TLV area (see the frame helpers below). Non-empty framing
  // makes Encode emit the flex magic; a decoded classic frame leaves it
  // empty.
  std::string framing;
  std::string extras;
  std::string key;
  std::string value;

  bool is_request() const {
    return magic == kMagicRequest || magic == kMagicFlexRequest;
  }
  bool is_flex() const {
    return magic == kMagicFlexRequest || magic == kMagicFlexResponse;
  }

  static Message Req(Opcode op) {
    Message m;
    m.magic = kMagicRequest;
    m.opcode = static_cast<uint8_t>(op);
    return m;
  }
  static Message Resp(const Message& req, uint16_t st) {
    Message m;
    m.magic = kMagicResponse;
    m.opcode = req.opcode;
    m.status = st;
    m.opaque = req.opaque;
    return m;
  }
};

// Appends the framed message to `out`. InvalidArgument when a field exceeds
// the protocol's limits (key > 64 KiB, extras > 255 B, body > kMaxBodyLen).
// Messages with a non-empty `framing` area are emitted with the flex magic
// (framing > 255 B or key > 255 B is InvalidArgument there — both length
// fields shrink to one byte).
Status Encode(const Message& m, std::string* out);

// --- Framed-extras entries -----------------------------------------------
// Each entry is tag (1 B), payload length (1 B), payload. Readers scan for
// the tag they want and skip everything else, so new tags never break old
// peers.

// Trace id, 8-byte payload: one u64 (0 means "no trace"). Rides requests;
// the serving side tags its flight-recorder entry and its slow-op lines
// with it.
constexpr uint8_t kFrameTagTraceId = 0x01;
constexpr uint8_t kFrameTagDurability = 0x02;
constexpr uint8_t kFrameTagServerTiming = 0x03;

// Durability requirement, 6-byte payload: replicate_to u8, persist_to u8,
// timeout_ms u32. Rides mutation requests; the server blocks the response
// until the requirement holds (or times out), the way Couchbase carries
// sync-writes in a framing entry.
struct DurabilityFrame {
  uint8_t replicate_to = 0;
  uint8_t persist_to = 0;
  uint32_t timeout_ms = 0;
};

// Server timing, 28-byte payload: the receive stamp u64, then five u32
// microsecond fields. Rides every response to a flex request. Phases sum to
// <= total (the remainder is response packing); a phase that did not run
// reports 0. `recv_nanos` is the CLOCK_MONOTONIC stamp of the recv(2) that
// delivered the request, and 0 from a node that is not on the real clock:
// CLOCK_MONOTONIC is one time base for every process on the host, so a
// client there splits its wait into a request leg (its send -> recv_nanos)
// and a reply leg (recv_nanos + total -> its recv return) around the
// server's total.
struct ServerTimingFrame {
  uint64_t recv_nanos = 0;
  uint32_t total_us = 0;
  uint32_t dispatch_us = 0;   // socket read -> engine call
  uint32_t engine_us = 0;     // KV engine (hash table + front-end)
  uint32_t replicate_us = 0;  // DCP replicate-ack wait (durable ops)
  uint32_t persist_us = 0;    // flusher persistence wait (durable ops)
};

// Appends one TLV entry. Put* never fails (payloads are fixed-size and tiny);
// Get* scans the framing area for its tag, skipping unknown entries, and
// returns false when the tag is absent, its payload has the wrong size, or
// the TLV stream is truncated.
void PutTraceFrame(std::string* framing, uint64_t trace_id);
bool GetTraceFrame(std::string_view framing, uint64_t* trace_id);
void PutDurabilityFrame(std::string* framing, const DurabilityFrame& d);
bool GetDurabilityFrame(std::string_view framing, DurabilityFrame* d);
void PutServerTimingFrame(std::string* framing, const ServerTimingFrame& t);
bool GetServerTimingFrame(std::string_view framing, ServerTimingFrame* t);

// --- Big-endian field helpers (for extras payloads) ---
void PutU32BE(std::string* out, uint32_t v);
void PutU64BE(std::string* out, uint64_t v);
bool GetU32BE(std::string_view in, size_t offset, uint32_t* v);
bool GetU64BE(std::string_view in, size_t offset, uint64_t* v);

// Extras layouts used by the KV opcodes:
//   SET/ADD/REPLACE request ... 8 B: flags u32, expiry u32
//   mutation response ......... 8 B: seqno u64 (cas travels in the header)
//   GET/GETL response ......... 4 B: flags u32
//   GETL request .............. 4 B: lock duration ms u32
//   TOUCH request ............. 4 B: expiry u32
void PutMutationExtras(std::string* extras, uint32_t flags, uint32_t expiry);
bool GetMutationExtras(std::string_view extras, uint32_t* flags,
                       uint32_t* expiry);

// Incremental frame decoder: feed it raw bytes as they arrive off a socket
// (in any fragmentation — single bytes, half headers, many pipelined frames
// per read) and pull complete messages out. A protocol violation is
// returned as kError with a diagnosis; the decoder is then poisoned (every
// later Next also errors) because resynchronizing inside a byte stream with
// corrupt lengths is guesswork — the connection must be closed.
class FrameDecoder {
 public:
  enum class Result { kNeedMore, kFrame, kError };

  // `expected_magic`: kMagicRequest on the server side, kMagicResponse on
  // the client side. The matching flex magic is accepted too (0x08 for
  // 0x80, 0x18 for 0x81); any other magic is a protocol error.
  explicit FrameDecoder(uint8_t expected_magic,
                        uint32_t max_body = kMaxBodyLen)
      : expected_magic_(expected_magic), max_body_(max_body) {}

  void Feed(std::string_view bytes) { buf_.append(bytes); }

  // Extracts the next complete frame into *out. On kError, *error holds the
  // diagnosis (InvalidArgument / ParseError).
  Result Next(Message* out, Status* error);

  size_t buffered() const { return buf_.size(); }
  bool poisoned() const { return poisoned_; }

 private:
  const uint8_t expected_magic_;
  const uint32_t max_body_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_, compacted lazily
  bool poisoned_ = false;
};

}  // namespace couchkv::net::wire

#endif  // COUCHKV_NET_WIRE_WIRE_H_
