#ifndef TRANSER_SERVE_REQUEST_CODEC_H_
#define TRANSER_SERVE_REQUEST_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/diagnostics.h"
#include "util/status.h"

namespace transer {
namespace serve {

/// \file
/// Length-prefixed, CRC-framed wire codec for the serving daemon,
/// built on the artifact_io Encoder/Decoder discipline: little-endian
/// fixed-width fields, bounds-checked reads, count-vs-remaining
/// validation before any allocation, and decode-validate-commit — a
/// frame either decodes into a fully validated message or is rejected
/// with a structured status, never a crash or partial state. Every
/// byte of a frame is covered: flips in the magic or length prefix
/// fail structurally, flips anywhere in the payload or trailer fail
/// the CRC.
///
/// Frame layout (all integers little-endian):
///   magic "TSRV" | u32 payload_len | payload | u32 CRC-32(payload)

/// Wire-format version; readers reject frames from a future codec.
inline constexpr uint32_t kCodecVersion = 1;

/// Leading magic of every serve frame (requests and responses alike).
inline constexpr char kFrameMagic[4] = {'T', 'S', 'R', 'V'};

/// Bytes of framing around the payload: magic + length + trailer CRC.
inline constexpr size_t kFrameOverheadBytes = 12;

/// What the client asks for. kResolve is the full pipeline answer
/// (labels + confidences, freshest model); kClassify is the degraded
/// cheap path (labels only); kPing / kStats are control traffic.
enum class RequestOp : uint8_t {
  kPing = 0,
  kClassify = 1,
  kResolve = 2,
  kStats = 3,
};

const char* RequestOpName(RequestOp op);

/// How far down the degradation ladder the server answered.
enum class ServeOutcome : uint8_t {
  kOk = 0,        ///< answered at the requested level
  kDegraded = 1,  ///< answered, but one rung down (classify-only)
  kRejected = 2,  ///< structured refusal; no predictions
};

const char* ServeOutcomeName(ServeOutcome outcome);

/// \brief Decode-side bounds. A frame or message exceeding any of them
/// is rejected before allocation, so a hostile length field can never
/// balloon memory.
struct CodecLimits {
  size_t max_frame_bytes = 64u << 20;  ///< whole frame, framing included
  size_t max_rows = 1u << 20;          ///< pairs per batched request
  size_t max_features = 4096;          ///< comparison-vector width
};

/// \brief One batched classify/resolve request: `rows` comparison
/// vectors over `feature_names`, row-major in `features`.
struct Request {
  uint64_t request_id = 0;
  RequestOp op = RequestOp::kPing;
  uint32_t deadline_ms = 0;  ///< 0 = server default
  std::vector<std::string> feature_names;
  uint64_t rows = 0;
  std::vector<double> features;  ///< rows * feature_names.size() entries
};

/// \brief The server's answer. On kRejected, `error` carries the
/// structured reason and `events` the DegradationKind record(s); on
/// success `labels` (and for full resolve `confidences`) hold one
/// entry per request row, bit-identical to the model's offline output
/// (doubles travel as IEEE-754 bit patterns).
struct Response {
  uint64_t request_id = 0;
  RequestOp op = RequestOp::kPing;
  ServeOutcome outcome = ServeOutcome::kOk;
  std::string model_id;  ///< artifact the answer came from ("" if none)
  bool selected_by_probe = false;  ///< centroid probe vs fingerprint match
  double probe_similarity = 0.0;   ///< SEL-style similarity when probed
  double server_ms = 0.0;          ///< server-side handling time
  std::string error;               ///< empty unless rejected
  std::vector<int> labels;
  std::vector<double> confidences;
  std::string stats_text;  ///< kStats / kPing info payload (JSON)
  std::vector<DegradationEvent> events;
};

/// Validates a decoded request against `limits`: known op, sane shape
/// (rows/features/names consistent, finite values), control ops carry
/// no data. InvalidArgument with a specific reason otherwise.
Status ValidateRequest(const Request& request, const CodecLimits& limits);

/// Serialises `request` into one complete frame. Encoding does not
/// validate — the fuzz/soak tooling deliberately builds hostile frames;
/// call ValidateRequest first when well-formedness matters.
std::vector<uint8_t> EncodeRequest(const Request& request);

/// Serialises `response` into one complete frame.
std::vector<uint8_t> EncodeResponse(const Response& response);

/// Wraps an arbitrary payload in the magic/length/CRC framing. Exposed
/// for tests, which need valid framing around hand-built payloads.
std::vector<uint8_t> WrapFrame(std::span<const uint8_t> payload);

/// Decodes and fully validates one request frame. Failure modes:
///   too short / length disagrees with the bytes  -> InvalidArgument
///   wrong magic                                  -> InvalidArgument
///   frame larger than limits.max_frame_bytes     -> InvalidArgument
///   payload CRC mismatch (any byte flip)         -> InvalidArgument
///   future codec version                         -> FailedPrecondition
///   wrong message type / failed validation       -> InvalidArgument
Result<Request> DecodeRequest(std::span<const uint8_t> frame,
                              const CodecLimits& limits);

/// Decodes and validates one response frame under the same contract.
Result<Response> DecodeResponse(std::span<const uint8_t> frame,
                                const CodecLimits& limits);

/// \brief Incremental reassembler for a framed byte stream (the host's
/// read loop). Feed() appends raw bytes; Pop() yields complete frames.
/// A stream whose next frame header is unusable (bad magic, declared
/// length over the limit) is unrecoverable — length-prefixed framing
/// cannot resync — so Pop() reports kCorrupt and the host must close
/// the connection. A CRC-corrupt but well-framed payload is NOT a
/// stream error: the frame pops normally and DecodeRequest rejects it,
/// so one flipped payload byte costs one request, not the connection.
class FrameReader {
 public:
  explicit FrameReader(const CodecLimits& limits) : limits_(limits) {}

  enum class Next {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< one frame popped into *frame
    kCorrupt,   ///< stream unusable; see error()
  };

  void Feed(const uint8_t* data, size_t size);

  /// Pops the next complete frame (framing included) into `*frame`.
  Next Pop(std::vector<uint8_t>* frame);

  /// The stream-level error after kCorrupt.
  const Status& error() const { return error_; }

  size_t buffered_bytes() const { return buffer_.size() - read_offset_; }

 private:
  CodecLimits limits_;
  std::vector<uint8_t> buffer_;
  size_t read_offset_ = 0;  ///< start of the first unpopped byte
  Status error_;
  bool corrupt_ = false;
};

}  // namespace serve
}  // namespace transer

#endif  // TRANSER_SERVE_REQUEST_CODEC_H_
