// Tests for the TSRV serving wire codec: bit-exact round trips,
// byte-flip fuzz over every offset of a valid frame, truncation at
// every prefix, hostile length fields, and FrameReader stream
// semantics — mirroring model_store_test's corruption pattern. A frame
// either decodes into a fully validated message or is rejected with a
// structured status; never a crash, never partial state.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/request_codec.h"
#include "util/artifact_io.h"

namespace transer {
namespace serve {
namespace {

Request MakeValidRequest() {
  Request request;
  request.request_id = 42;
  request.op = RequestOp::kResolve;
  request.deadline_ms = 250;
  request.feature_names = {"jaro", "jaccard", "trigram"};
  request.rows = 4;
  request.features = {0.1, 0.2, 0.3,  0.9, 0.8, 0.7,
                      0.5, 0.5, 0.25, 0.0, 1.0, 0.625};
  return request;
}

Response MakeValidResponse() {
  Response response;
  response.request_id = 42;
  response.op = RequestOp::kResolve;
  response.outcome = ServeOutcome::kDegraded;
  response.model_id = "dblp_scholar.tera";
  response.selected_by_probe = true;
  response.probe_similarity = 0.8125;
  response.server_ms = 1.5;
  response.labels = {1, 0, 1, 1};
  response.confidences = {0.9, 0.1, 0.75, 0.625};
  response.stats_text = "{\"ready\":true}";
  DegradationEvent event;
  event.kind = DegradationKind::kServeClassifyOnly;
  event.phase = "serve";
  event.detail = "memory budget";
  event.original_value = 0.0;
  event.adjusted_value = 1.0;
  response.events.push_back(event);
  return response;
}

std::string ToHex(const std::vector<uint8_t>& bytes) {
  std::string hex;
  char digits[3];
  for (uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    hex += digits;
  }
  return hex;
}

// ---------- Byte-identity pins --------------------------------------
// Literal frames captured from the bytewise encoder and CRC that the
// bulk codec replaced. The wire format is a contract with every
// deployed client: a change here is a format change, not a refactor.

TEST(ServeCodecTest, RequestFrameBytesArePinned) {
  const std::vector<uint8_t> frame = EncodeRequest(MakeValidRequest());
  // The encoder sizes the frame up front; a wrong size costs regrowth.
  EXPECT_EQ(frame.capacity(), frame.size());
  EXPECT_EQ(ToHex(frame),
      "54535256a800000001010000002a0000000000000002fa000000030000000000"
      "0000040000006a61726f070000006a616363617264070000007472696772616d"
      "04000000000000000c000000000000009a9999999999b93f9a9999999999c93f"
      "333333333333d33fcdccccccccccec3f9a9999999999e93f666666666666e63f"
      "000000000000e03f000000000000e03f000000000000d03f0000000000000000"
      "000000000000f03f000000000000e43f207c0012");
}

TEST(ServeCodecTest, ResponseFrameBytesArePinned) {
  const std::vector<uint8_t> frame = EncodeResponse(MakeValidResponse());
  EXPECT_EQ(frame.capacity(), frame.size());
  EXPECT_EQ(ToHex(frame),
      "54535256ce00000002010000002a0000000000000002011100000064626c705f"
      "7363686f6c61722e7465726101000000000000ea3f000000000000f83f000000"
      "0004000000000000000100000000000000000000000000000001000000000000"
      "0001000000000000000400000000000000cdccccccccccec3f9a9999999999b9"
      "3f000000000000e83f000000000000e43f0e0000007b227265616479223a7472"
      "75657d01000000000000000f0500000073657276650d0000006d656d6f727920"
      "6275646765740000000000000000000000000000f03f537dc6f6");
}

TEST(ServeCodecTest, RequestRoundTripIsBitExact) {
  const Request request = MakeValidRequest();
  const std::vector<uint8_t> frame = EncodeRequest(request);
  auto decoded = DecodeRequest(frame, CodecLimits{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Request& back = decoded.value();
  EXPECT_EQ(back.request_id, request.request_id);
  EXPECT_EQ(back.op, request.op);
  EXPECT_EQ(back.deadline_ms, request.deadline_ms);
  EXPECT_EQ(back.feature_names, request.feature_names);
  EXPECT_EQ(back.rows, request.rows);
  ASSERT_EQ(back.features.size(), request.features.size());
  for (size_t i = 0; i < request.features.size(); ++i) {
    // Doubles travel as IEEE-754 bit patterns, so equality is exact.
    EXPECT_EQ(back.features[i], request.features[i]) << "feature " << i;
  }
}

TEST(ServeCodecTest, ResponseRoundTripIsBitExact) {
  const Response response = MakeValidResponse();
  const std::vector<uint8_t> frame = EncodeResponse(response);
  auto decoded = DecodeResponse(frame, CodecLimits{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Response& back = decoded.value();
  EXPECT_EQ(back.request_id, response.request_id);
  EXPECT_EQ(back.outcome, response.outcome);
  EXPECT_EQ(back.model_id, response.model_id);
  EXPECT_EQ(back.selected_by_probe, response.selected_by_probe);
  EXPECT_EQ(back.probe_similarity, response.probe_similarity);
  EXPECT_EQ(back.labels, response.labels);
  ASSERT_EQ(back.confidences.size(), response.confidences.size());
  for (size_t i = 0; i < response.confidences.size(); ++i) {
    EXPECT_EQ(back.confidences[i], response.confidences[i]);
  }
  EXPECT_EQ(back.stats_text, response.stats_text);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].kind, DegradationKind::kServeClassifyOnly);
  EXPECT_EQ(back.events[0].detail, "memory budget");
}

// ---------- The fuzz sweeps (the satellite's core requirement) -------

TEST(ServeCodecTest, ByteFlipAtEveryOffsetIsRejected) {
  const std::vector<uint8_t> frame = EncodeRequest(MakeValidRequest());
  for (size_t offset = 0; offset < frame.size(); ++offset) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> corrupted = frame;
      corrupted[offset] ^= mask;
      auto decoded = DecodeRequest(corrupted, CodecLimits{});
      EXPECT_FALSE(decoded.ok())
          << "flip of offset " << offset << " mask " << int{mask}
          << " was not rejected";
    }
  }
}

TEST(ServeCodecTest, TruncationAtEveryPrefixIsRejected) {
  const std::vector<uint8_t> frame = EncodeRequest(MakeValidRequest());
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    const std::vector<uint8_t> truncated(frame.begin(),
                                         frame.begin() + keep);
    auto decoded = DecodeRequest(truncated, CodecLimits{});
    EXPECT_FALSE(decoded.ok())
        << "truncation to " << keep << " bytes was not rejected";
  }
}

TEST(ServeCodecTest, ResponseByteFlipAtEveryOffsetIsRejected) {
  const std::vector<uint8_t> frame = EncodeResponse(MakeValidResponse());
  for (size_t offset = 0; offset < frame.size(); ++offset) {
    std::vector<uint8_t> corrupted = frame;
    corrupted[offset] ^= 0xFF;
    EXPECT_FALSE(DecodeResponse(corrupted, CodecLimits{}).ok())
        << "flip of offset " << offset << " was not rejected";
  }
}

// ---------- Structural and semantic rejection ------------------------

TEST(ServeCodecTest, EmptyAndTinyFramesAreRejected) {
  EXPECT_FALSE(DecodeRequest({}, CodecLimits{}).ok());
  const std::vector<uint8_t> tiny(kFrameOverheadBytes - 1, 0);
  EXPECT_FALSE(DecodeRequest(tiny, CodecLimits{}).ok());
}

TEST(ServeCodecTest, OversizedFrameIsRejectedBeforeAllocation) {
  CodecLimits limits;
  limits.max_frame_bytes = 64;
  Request request = MakeValidRequest();
  const std::vector<uint8_t> frame = EncodeRequest(request);
  ASSERT_GT(frame.size(), limits.max_frame_bytes);
  auto decoded = DecodeRequest(frame, limits);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("limit"), std::string::npos);
}

TEST(ServeCodecTest, ValidFramingWithHostilePayloadIsRejected) {
  // Correct CRC over a payload that fails semantic validation: rows
  // disagreeing with the feature count. WrapFrame re-stamps the CRC, so
  // this exercises decode-validate-commit past the integrity layer.
  Request request = MakeValidRequest();
  request.rows = 5;  // features hold 4 rows' worth
  auto decoded = DecodeRequest(EncodeRequest(request), CodecLimits{});
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("feature values"),
            std::string::npos);

  Request nan_request = MakeValidRequest();
  nan_request.features[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeRequest(EncodeRequest(nan_request), CodecLimits{}).ok());

  Request control = MakeValidRequest();
  control.op = RequestOp::kPing;  // ping must not carry data
  EXPECT_FALSE(DecodeRequest(EncodeRequest(control), CodecLimits{}).ok());

  Request zero_rows = MakeValidRequest();
  zero_rows.rows = 0;
  zero_rows.features.clear();
  EXPECT_FALSE(DecodeRequest(EncodeRequest(zero_rows), CodecLimits{}).ok());
}

TEST(ServeCodecTest, RowLimitIsEnforced) {
  CodecLimits limits;
  limits.max_rows = 2;
  auto decoded = DecodeRequest(EncodeRequest(MakeValidRequest()), limits);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("rows"), std::string::npos);
}

TEST(ServeCodecTest, ResponseIsNotARequest) {
  const std::vector<uint8_t> frame = EncodeResponse(MakeValidResponse());
  auto decoded = DecodeRequest(frame, CodecLimits{});
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("message type"),
            std::string::npos);
}

TEST(ServeCodecTest, FutureCodecVersionIsFailedPrecondition) {
  // Hand-build a request payload with a bumped version field.
  artifact::Encoder payload;
  payload.PutU8(1);  // request message
  payload.PutU32(kCodecVersion + 1);
  payload.PutU64(7);
  payload.PutU8(0);
  const std::vector<uint8_t> frame = WrapFrame(payload.TakeBytes());
  auto decoded = DecodeRequest(frame, CodecLimits{});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

// ---------- FrameReader stream semantics -----------------------------

TEST(ServeCodecTest, FrameReaderReassemblesByteByByte) {
  const std::vector<uint8_t> first = EncodeRequest(MakeValidRequest());
  Request second_request = MakeValidRequest();
  second_request.request_id = 43;
  const std::vector<uint8_t> second = EncodeRequest(second_request);

  std::vector<uint8_t> stream = first;
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader{CodecLimits{}};
  std::vector<std::vector<uint8_t>> frames;
  std::vector<uint8_t> frame;
  for (uint8_t byte : stream) {
    reader.Feed(&byte, 1);
    while (reader.Pop(&frame) == FrameReader::Next::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], first);
  EXPECT_EQ(frames[1], second);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ServeCodecTest, FrameReaderPopsAThousandPipelinedFrames) {
  // Frames of varying size, back to back in one stream, as a pipelining
  // client sends them.
  std::vector<std::vector<uint8_t>> sent;
  std::vector<uint8_t> stream;
  for (uint64_t i = 0; i < 1000; ++i) {
    Request request = MakeValidRequest();
    request.request_id = i;
    request.rows = 1 + i % 7;
    request.features.resize(request.rows * request.feature_names.size());
    for (size_t j = 0; j < request.features.size(); ++j) {
      request.features[j] = static_cast<double>((i + j) % 17) / 16.0;
    }
    sent.push_back(EncodeRequest(request));
    stream.insert(stream.end(), sent.back().begin(), sent.back().end());
  }

  // All of it in one Feed, then every frame popped.
  FrameReader reader{CodecLimits{}};
  reader.Feed(stream.data(), stream.size());
  std::vector<uint8_t> frame;
  for (size_t i = 0; i < sent.size(); ++i) {
    ASSERT_EQ(reader.Pop(&frame), FrameReader::Next::kFrame) << i;
    ASSERT_EQ(frame, sent[i]) << "frame " << i;
  }
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.buffered_bytes(), 0u);

  // The same stream in chunks that split frames anywhere, popping
  // between feeds, so compaction runs with partial frames buffered.
  FrameReader chunked{CodecLimits{}};
  size_t popped = 0;
  for (size_t offset = 0; offset < stream.size(); offset += 1009) {
    const size_t n = std::min<size_t>(1009, stream.size() - offset);
    chunked.Feed(stream.data() + offset, n);
    while (chunked.Pop(&frame) == FrameReader::Next::kFrame) {
      ASSERT_LT(popped, sent.size());
      ASSERT_EQ(frame, sent[popped]) << "frame " << popped;
      ++popped;
    }
  }
  EXPECT_EQ(popped, sent.size());
  EXPECT_EQ(chunked.buffered_bytes(), 0u);
}

TEST(ServeCodecTest, FrameReaderCondemnsBadMagic) {
  FrameReader reader{CodecLimits{}};
  const uint8_t garbage[] = {'n', 'o', 'p', 'e', 0, 0, 0, 0, 1, 2, 3, 4};
  reader.Feed(garbage, sizeof(garbage));
  std::vector<uint8_t> frame;
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kCorrupt);
  EXPECT_FALSE(reader.error().ok());
  // The stream stays condemned; more bytes cannot resurrect it.
  reader.Feed(garbage, sizeof(garbage));
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kCorrupt);
}

TEST(ServeCodecTest, FrameReaderCondemnsHostileLength) {
  CodecLimits limits;
  limits.max_frame_bytes = 1024;
  FrameReader reader{limits};
  std::vector<uint8_t> header = {'T', 'S', 'R', 'V', 0xFF, 0xFF, 0xFF, 0x7F};
  reader.Feed(header.data(), header.size());
  std::vector<uint8_t> frame;
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kCorrupt);
  EXPECT_NE(reader.error().message().find("limit"), std::string::npos);
}

TEST(ServeCodecTest, FrameReaderPassesCrcCorruptFramesThrough) {
  // A payload flip keeps the framing intact: the reader yields the
  // frame (the stream survives) and DecodeRequest rejects it.
  std::vector<uint8_t> frame = EncodeRequest(MakeValidRequest());
  frame[kFrameOverheadBytes] ^= 0xFF;  // first payload byte
  FrameReader reader{CodecLimits{}};
  reader.Feed(frame.data(), frame.size());
  std::vector<uint8_t> popped;
  ASSERT_EQ(reader.Pop(&popped), FrameReader::Next::kFrame);
  EXPECT_FALSE(DecodeRequest(popped, CodecLimits{}).ok());
  // The reader is still healthy for the next frame.
  const std::vector<uint8_t> clean = EncodeRequest(MakeValidRequest());
  reader.Feed(clean.data(), clean.size());
  ASSERT_EQ(reader.Pop(&popped), FrameReader::Next::kFrame);
  EXPECT_TRUE(DecodeRequest(popped, CodecLimits{}).ok());
}

}  // namespace
}  // namespace serve
}  // namespace transer
