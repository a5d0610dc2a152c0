#ifndef CSD_SERVE_FRAME_H_
#define CSD_SERVE_FRAME_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace csd::serve {

/// The length-prefixed binary framing `csdctl serve --listen` speaks —
/// the server's only front end. Every frame is a fixed 16-byte
/// little-endian header followed by `payload_len` payload bytes:
///
///   offset  size  field
///        0     4  payload_len   (bytes after the header, < 1 MiB)
///        4     1  type          (FrameType)
///        5     1  flags         (0; reserved)
///        6     2  reserved      (0)
///        8     4  request_id    (echoed verbatim in the response)
///       12     4  deadline_ms   (request budget in ms; 0 = none)
///
/// request_id lets a client pipeline many frames per connection and
/// match responses out of order — the server answers annotations as
/// their batches complete, not in arrival order. deadline_ms rides in
/// the header so the server can stamp the deadline before touching the
/// payload.
///
/// Request payloads (all integers little-endian, floats IEEE binary64):
///   kAnnotateReq   u32 count, then count × (f64 x, f64 y, i64 time)
///   kJourneyReq    2 × (f64 x, f64 y, i64 time)  — pickup, dropoff
///   kQueryUnitReq  u32 unit
///   kRebuildReq    (empty)
///   kStatsReq      (empty)
///   kIngestFix     u32 user_id, u32 count,
///                  then count × (f64 x, f64 y, i64 time)
/// Response payloads:
///   kAnnotateResp  u64 snapshot_version, u32 count,
///                  then count × (u32 unit, u32 semantic_bits)
///   kTextResp      UTF-8 text: an `ok query|rebuild|stats|ingest ...`
///                  line (serve/protocol.h)
///   kErrorResp     u16 status_code, UTF-8 message
///
/// Decoding is defensive end to end: a violated bound (oversized
/// payload_len, unknown type, truncated or over-long payload) is a
/// clean Status, never a crash or an over-read — the byte-flip fuzz in
/// tests/net_frame_test.cc holds it to that under asan/ubsan.
enum class FrameType : uint8_t {
  kAnnotateReq = 1,
  kJourneyReq = 2,
  kQueryUnitReq = 3,
  kRebuildReq = 4,
  kStatsReq = 5,
  kIngestFix = 6,
  kAnnotateResp = 16,
  kTextResp = 17,
  kErrorResp = 18,
};

inline constexpr size_t kFrameHeaderSize = 16;

/// Ceiling on payload_len: annotate requests stay tiny (a few stays ×
/// 24 bytes), so anything near this is a corrupt or hostile length
/// header and the connection is better closed than buffered against.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

struct FrameHeader {
  uint32_t payload_len = 0;
  uint8_t type = 0;
  uint8_t flags = 0;
  uint16_t reserved = 0;
  uint32_t request_id = 0;
  uint32_t deadline_ms = 0;
};

/// One frame located in a receive buffer; `payload` points into the
/// caller's buffer (valid until the caller consumes/compacts it).
struct DecodedFrame {
  FrameHeader header;
  std::span<const uint8_t> payload;
};

enum class DecodeStatus {
  kFrame,     // *out holds one frame; *consumed bytes were used
  kNeedMore,  // buffer holds a frame prefix; read more bytes
  kError,     // unrecoverable framing error (*error says why)
};

/// Scans the front of `buffer` for one complete frame. kFrame sets
/// `*out` (payload aliasing `buffer`) and `*consumed`; kNeedMore means
/// append more bytes and retry; kError (oversized length header,
/// unknown frame type, nonzero flags) poisons the whole stream — the
/// caller cannot resynchronize a length-prefixed stream after a bad
/// header and should close the connection.
DecodeStatus DecodeFrame(std::span<const uint8_t> buffer, DecodedFrame* out,
                         size_t* consumed, Status* error);

/// A decoded request frame, payload parsed into typed fields.
struct NetRequest {
  FrameType type = FrameType::kStatsReq;
  uint32_t request_id = 0;
  uint32_t deadline_ms = 0;
  std::vector<StayPoint> stays;  // kAnnotateReq / kJourneyReq
  uint32_t unit = 0;             // kQueryUnitReq
  uint32_t user_id = 0;          // kIngestFix
  std::vector<GpsPoint> fixes;   // kIngestFix
};

/// A decoded response frame (client side and tests).
struct NetResponse {
  FrameType type = FrameType::kErrorResp;
  uint32_t request_id = 0;
  uint64_t snapshot_version = 0;           // kAnnotateResp
  std::vector<uint32_t> units;             // kAnnotateResp
  std::vector<uint32_t> semantic_bits;     // kAnnotateResp
  std::string text;                        // kTextResp
  StatusCode code = StatusCode::kOk;       // kErrorResp
  std::string message;                     // kErrorResp
};

/// Parses a request/response frame's payload. ParseError on a response
/// type (and vice versa), on truncated or over-long payloads, and on
/// any count that disagrees with payload_len.
Result<NetRequest> ParseRequestFrame(const DecodedFrame& frame);
Result<NetResponse> ParseResponseFrame(const DecodedFrame& frame);

/// Encoders append one complete frame to `*out` (the connection's write
/// buffer — appending is the coalescing).
void AppendAnnotateRequest(uint32_t request_id, uint32_t deadline_ms,
                           std::span<const StayPoint> stays,
                           std::vector<uint8_t>* out);
void AppendJourneyRequest(uint32_t request_id, uint32_t deadline_ms,
                          const StayPoint& pickup, const StayPoint& dropoff,
                          std::vector<uint8_t>* out);
void AppendQueryUnitRequest(uint32_t request_id, uint32_t unit,
                            std::vector<uint8_t>* out);
void AppendRebuildRequest(uint32_t request_id, std::vector<uint8_t>* out);
void AppendStatsRequest(uint32_t request_id, std::vector<uint8_t>* out);
void AppendIngestFixRequest(uint32_t request_id, uint32_t user_id,
                            std::span<const GpsPoint> fixes,
                            std::vector<uint8_t>* out);

void AppendAnnotateResponse(uint32_t request_id, const AnnotateResult& result,
                            std::vector<uint8_t>* out);
void AppendTextResponse(uint32_t request_id, std::string_view text,
                        std::vector<uint8_t>* out);
void AppendErrorResponse(uint32_t request_id, const Status& status,
                         std::vector<uint8_t>* out);

}  // namespace csd::serve

#endif  // CSD_SERVE_FRAME_H_
