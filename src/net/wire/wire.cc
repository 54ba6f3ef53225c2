#include "net/wire/wire.h"

#include <cstring>

namespace couchkv::net::wire {

namespace {

void PutU16BE(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v >> 8));
  out->push_back(static_cast<char>(v & 0xff));
}

uint16_t GetU16BE(const char* p) {
  return static_cast<uint16_t>((static_cast<uint8_t>(p[0]) << 8) |
                               static_cast<uint8_t>(p[1]));
}

uint32_t GetU32BEUnchecked(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

uint64_t GetU64BEUnchecked(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

}  // namespace

bool IsKnownOpcode(uint8_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kGet:
    case Opcode::kSet:
    case Opcode::kAdd:
    case Opcode::kReplace:
    case Opcode::kDelete:
    case Opcode::kNoop:
    case Opcode::kStat:
    case Opcode::kTouch:
    case Opcode::kGetLocked:
    case Opcode::kUnlockKey:
    case Opcode::kGetClusterMap:
    case Opcode::kObserveTrace:
      return true;
  }
  return false;
}

const char* OpcodeName(uint8_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kGet: return "GET";
    case Opcode::kSet: return "SET";
    case Opcode::kAdd: return "ADD";
    case Opcode::kReplace: return "REPLACE";
    case Opcode::kDelete: return "DELETE";
    case Opcode::kNoop: return "NOOP";
    case Opcode::kStat: return "STAT";
    case Opcode::kTouch: return "TOUCH";
    case Opcode::kGetLocked: return "GETL";
    case Opcode::kUnlockKey: return "UNLOCK";
    case Opcode::kGetClusterMap: return "GET_CLUSTER_MAP";
    case Opcode::kObserveTrace: return "OBSERVE_TRACE";
  }
  return "UNKNOWN";
}

uint16_t WireStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return kSuccess;
    case StatusCode::kNotFound: return kKeyNotFound;
    case StatusCode::kKeyExists: return kKeyExistsErr;
    case StatusCode::kLocked: return kLockedErr;
    case StatusCode::kNotMyVBucket: return kNotMyVBucketErr;
    case StatusCode::kTempFail: return kTempFailErr;
    case StatusCode::kTimeout: return kTimeoutErr;
    case StatusCode::kInvalidArgument: return kInvalidArguments;
    case StatusCode::kParseError: return kParseErrorErr;
    case StatusCode::kPlanError: return kPlanErrorErr;
    case StatusCode::kIOError: return kIOErrorErr;
    case StatusCode::kCorruption: return kCorruptionErr;
    case StatusCode::kUnsupported: return kUnsupportedErr;
    case StatusCode::kAborted: return kAbortedErr;
    case StatusCode::kInternal: return kInternalError;
  }
  return kInternalError;
}

Status StatusFromWire(uint16_t status, std::string message) {
  switch (status) {
    case kSuccess: return Status::OK();
    case kKeyNotFound: return Status::NotFound(std::move(message));
    case kKeyExistsErr: return Status::KeyExists(std::move(message));
    case kLockedErr: return Status::Locked(std::move(message));
    case kNotMyVBucketErr: return Status::NotMyVBucket(std::move(message));
    case kTempFailErr: return Status::TempFail(std::move(message));
    case kTimeoutErr: return Status::Timeout(std::move(message));
    case kInvalidArguments: return Status::InvalidArgument(std::move(message));
    case kParseErrorErr: return Status::ParseError(std::move(message));
    case kPlanErrorErr: return Status::PlanError(std::move(message));
    case kIOErrorErr: return Status::IOError(std::move(message));
    case kCorruptionErr: return Status::Corruption(std::move(message));
    case kUnsupportedErr:
    case kUnknownCommand:
      return Status::Unsupported(std::move(message));
    case kAbortedErr: return Status::Aborted(std::move(message));
    case kNotStored:
    case kInternalError:
    default:
      return Status::Internal(std::move(message));
  }
}

Status Encode(const Message& m, std::string* out) {
  const bool is_response =
      m.magic == kMagicResponse || m.magic == kMagicFlexResponse;
  const bool flex = !m.framing.empty() || m.is_flex();
  if (m.key.size() > UINT16_MAX) {
    return Status::InvalidArgument("wire: key exceeds 64KiB");
  }
  if (m.extras.size() > UINT8_MAX) {
    return Status::InvalidArgument("wire: extras exceed 255 bytes");
  }
  if (flex && m.key.size() > UINT8_MAX) {
    return Status::InvalidArgument("wire: flex frame key exceeds 255 bytes");
  }
  if (m.framing.size() > UINT8_MAX) {
    return Status::InvalidArgument("wire: framing extras exceed 255 bytes");
  }
  uint64_t body =
      m.framing.size() + m.extras.size() + m.key.size() + m.value.size();
  if (body > kMaxBodyLen) {
    return Status::InvalidArgument("wire: body exceeds kMaxBodyLen");
  }
  out->reserve(out->size() + kHeaderSize + body);
  if (flex) {
    out->push_back(static_cast<char>(is_response ? kMagicFlexResponse
                                                 : kMagicFlexRequest));
    out->push_back(static_cast<char>(m.opcode));
    out->push_back(static_cast<char>(m.framing.size()));
    out->push_back(static_cast<char>(m.key.size()));
  } else {
    out->push_back(static_cast<char>(m.magic));
    out->push_back(static_cast<char>(m.opcode));
    PutU16BE(out, static_cast<uint16_t>(m.key.size()));
  }
  out->push_back(static_cast<char>(m.extras.size()));
  out->push_back(0);  // data type
  PutU16BE(out, is_response ? m.status : m.vbucket);
  PutU32BE(out, static_cast<uint32_t>(body));
  PutU32BE(out, m.opaque);
  PutU64BE(out, m.cas);
  out->append(m.framing);
  out->append(m.extras);
  out->append(m.key);
  out->append(m.value);
  return Status::OK();
}

void PutU32BE(std::string* out, uint32_t v) {
  for (int i = 3; i >= 0; --i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64BE(std::string* out, uint64_t v) {
  for (int i = 7; i >= 0; --i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool GetU32BE(std::string_view in, size_t offset, uint32_t* v) {
  if (offset + 4 > in.size()) return false;
  *v = GetU32BEUnchecked(in.data() + offset);
  return true;
}

bool GetU64BE(std::string_view in, size_t offset, uint64_t* v) {
  if (offset + 8 > in.size()) return false;
  *v = GetU64BEUnchecked(in.data() + offset);
  return true;
}

void PutMutationExtras(std::string* extras, uint32_t flags, uint32_t expiry) {
  PutU32BE(extras, flags);
  PutU32BE(extras, expiry);
}

bool GetMutationExtras(std::string_view extras, uint32_t* flags,
                       uint32_t* expiry) {
  return extras.size() == 8 && GetU32BE(extras, 0, flags) &&
         GetU32BE(extras, 4, expiry);
}

namespace {

// Scans the TLV stream for `tag`, skipping unknown entries, and points
// `payload` at its bytes. False when absent or the stream is truncated.
bool FindFrameTag(std::string_view framing, uint8_t tag,
                  std::string_view* payload) {
  size_t pos = 0;
  while (pos + 2 <= framing.size()) {
    const uint8_t t = static_cast<uint8_t>(framing[pos]);
    const uint8_t len = static_cast<uint8_t>(framing[pos + 1]);
    if (pos + 2 + len > framing.size()) return false;  // truncated entry
    if (t == tag) {
      *payload = framing.substr(pos + 2, len);
      return true;
    }
    pos += 2 + len;
  }
  return false;
}

void AppendFrameTag(std::string* framing, uint8_t tag,
                    std::string_view payload) {
  framing->push_back(static_cast<char>(tag));
  framing->push_back(static_cast<char>(payload.size()));
  framing->append(payload);
}

}  // namespace

void PutTraceFrame(std::string* framing, uint64_t trace_id) {
  std::string payload;
  PutU64BE(&payload, trace_id);
  AppendFrameTag(framing, kFrameTagTraceId, payload);
}

bool GetTraceFrame(std::string_view framing, uint64_t* trace_id) {
  std::string_view p;
  return FindFrameTag(framing, kFrameTagTraceId, &p) && p.size() == 8 &&
         GetU64BE(p, 0, trace_id);
}

void PutDurabilityFrame(std::string* framing, const DurabilityFrame& d) {
  std::string payload;
  payload.push_back(static_cast<char>(d.replicate_to));
  payload.push_back(static_cast<char>(d.persist_to));
  PutU32BE(&payload, d.timeout_ms);
  AppendFrameTag(framing, kFrameTagDurability, payload);
}

bool GetDurabilityFrame(std::string_view framing, DurabilityFrame* d) {
  std::string_view p;
  if (!FindFrameTag(framing, kFrameTagDurability, &p) || p.size() != 6) {
    return false;
  }
  d->replicate_to = static_cast<uint8_t>(p[0]);
  d->persist_to = static_cast<uint8_t>(p[1]);
  return GetU32BE(p, 2, &d->timeout_ms);
}

void PutServerTimingFrame(std::string* framing, const ServerTimingFrame& t) {
  std::string payload;
  PutU64BE(&payload, t.recv_nanos);
  PutU32BE(&payload, t.total_us);
  PutU32BE(&payload, t.dispatch_us);
  PutU32BE(&payload, t.engine_us);
  PutU32BE(&payload, t.replicate_us);
  PutU32BE(&payload, t.persist_us);
  AppendFrameTag(framing, kFrameTagServerTiming, payload);
}

bool GetServerTimingFrame(std::string_view framing, ServerTimingFrame* t) {
  std::string_view p;
  if (!FindFrameTag(framing, kFrameTagServerTiming, &p) || p.size() != 28) {
    return false;
  }
  return GetU64BE(p, 0, &t->recv_nanos) && GetU32BE(p, 8, &t->total_us) &&
         GetU32BE(p, 12, &t->dispatch_us) && GetU32BE(p, 16, &t->engine_us) &&
         GetU32BE(p, 20, &t->replicate_us) && GetU32BE(p, 24, &t->persist_us);
}

FrameDecoder::Result FrameDecoder::Next(Message* out, Status* error) {
  if (poisoned_) {
    *error = Status::ParseError("wire: decoder poisoned by earlier error");
    return Result::kError;
  }
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ < kHeaderSize) return Result::kNeedMore;

  const char* h = buf_.data() + pos_;
  const uint8_t magic = static_cast<uint8_t>(h[0]);
  const uint8_t opcode = static_cast<uint8_t>(h[1]);
  // The flex twin of the expected classic magic is equally welcome; it only
  // changes how bytes 2-3 split into framing/key lengths.
  const uint8_t flex_magic = expected_magic_ == kMagicRequest
                                 ? kMagicFlexRequest
                                 : kMagicFlexResponse;
  const bool flex = magic == flex_magic;
  const uint16_t key_len =
      flex ? static_cast<uint8_t>(h[3]) : GetU16BE(h + 2);
  const uint8_t framing_len = flex ? static_cast<uint8_t>(h[2]) : 0;
  const uint8_t ext_len = static_cast<uint8_t>(h[4]);
  const uint8_t data_type = static_cast<uint8_t>(h[5]);
  const uint16_t vb_or_status = GetU16BE(h + 6);
  const uint32_t body_len = GetU32BEUnchecked(h + 8);
  const uint32_t opaque = GetU32BEUnchecked(h + 12);
  const uint64_t cas = GetU64BEUnchecked(h + 16);

  // Validate everything derivable from the header before waiting for the
  // body: a corrupt length field must not stall the connection (or balloon
  // the buffer) waiting for bytes that will never come.
  if (magic != expected_magic_ && !flex) {
    poisoned_ = true;
    *error = Status::ParseError("wire: bad magic byte");
    return Result::kError;
  }
  if (data_type != 0) {
    poisoned_ = true;
    *error = Status::ParseError("wire: nonzero data type");
    return Result::kError;
  }
  if (body_len > max_body_) {
    poisoned_ = true;
    *error = Status::InvalidArgument("wire: body length exceeds limit");
    return Result::kError;
  }
  if (static_cast<uint32_t>(key_len) + ext_len + framing_len > body_len) {
    poisoned_ = true;
    *error = Status::InvalidArgument("wire: extras+key exceed body length");
    return Result::kError;
  }
  if (buf_.size() - pos_ < kHeaderSize + body_len) return Result::kNeedMore;

  const char* body = h + kHeaderSize;
  out->magic = magic;
  out->opcode = opcode;
  if (expected_magic_ == kMagicResponse) {
    out->status = vb_or_status;
    out->vbucket = 0;
  } else {
    out->vbucket = vb_or_status;
    out->status = 0;
  }
  out->opaque = opaque;
  out->cas = cas;
  out->framing.assign(body, framing_len);
  out->extras.assign(body + framing_len, ext_len);
  out->key.assign(body + framing_len + ext_len, key_len);
  out->value.assign(body + framing_len + ext_len + key_len,
                    body_len - framing_len - ext_len - key_len);
  pos_ += kHeaderSize + body_len;
  return Result::kFrame;
}

}  // namespace couchkv::net::wire
