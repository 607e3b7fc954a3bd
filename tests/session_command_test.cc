// Tests of the canonical SessionCommand binary codec and command log
// (src/serve/session_command.h): randomized round trips must be
// bit-exact, and malformed or fuzzed input must be rejected without
// reading past the buffer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>
#include <string>

#include "serve/session_command.h"

namespace savg {
namespace {

SessionCommand RandomCommand(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> tag(1, 9);
  std::uniform_int_distribution<int> id(0, 500);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  switch (static_cast<CommandType>(tag(*rng))) {
    case CommandType::kPref:
      return MakePref(id(*rng), id(*rng), value(*rng));
    case CommandType::kTau:
      return MakeTau(id(*rng), id(*rng), id(*rng), value(*rng));
    case CommandType::kLambda:
      return MakeLambda(value(*rng));
    case CommandType::kJoin:
      return MakeJoin();
    case CommandType::kFriend:
      return MakeFriend(id(*rng), id(*rng));
    case CommandType::kLeave:
      return MakeLeave(id(*rng));
    case CommandType::kAddItem:
      return MakeAddItem();
    case CommandType::kRetireItem:
      return MakeRetireItem(id(*rng));
    case CommandType::kResolve:
      return MakeResolve();
  }
  return MakeResolve();
}

TEST(SessionCommandTest, RandomizedRoundTripIsBitExact) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const SessionCommand cmd = RandomCommand(&rng);
    std::string bytes;
    EncodeCommand(cmd, &bytes);
    EXPECT_EQ(bytes.size(), EncodedCommandSize(cmd));
    size_t consumed = 0;
    auto decoded = DecodeCommand(bytes.data(), bytes.size(), &consumed);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(*decoded, cmd);
    // Canonical: re-encoding the decoded command reproduces the bytes.
    std::string again;
    EncodeCommand(*decoded, &again);
    EXPECT_EQ(again, bytes);
  }
}

TEST(SessionCommandTest, SpecialDoubleBitsSurviveRoundTrip) {
  // IEEE-754 bit-pattern transport: negative zero and subnormals must
  // come back with the exact same bits (operator== would call -0.0 and
  // 0.0 equal, so compare bit patterns directly).
  for (double value : {-0.0, 5e-324, -5e-324, 1.0 / 3.0}) {
    const SessionCommand cmd = MakeLambda(value);
    std::string bytes;
    EncodeCommand(cmd, &bytes);
    size_t consumed = 0;
    auto decoded = DecodeCommand(bytes.data(), bytes.size(), &consumed);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    uint64_t in_bits = 0, out_bits = 0;
    std::memcpy(&in_bits, &value, sizeof(in_bits));
    std::memcpy(&out_bits, &decoded->value, sizeof(out_bits));
    EXPECT_EQ(in_bits, out_bits);
  }
}

TEST(SessionCommandTest, DecodeRejectsTruncatedAndUnknownTags) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const SessionCommand cmd = RandomCommand(&rng);
    std::string bytes;
    EncodeCommand(cmd, &bytes);
    // Every strict prefix shorter than the encoding must fail cleanly.
    for (size_t len = 0; len < bytes.size(); ++len) {
      size_t consumed = 0;
      auto decoded = DecodeCommand(bytes.data(), len, &consumed);
      EXPECT_FALSE(decoded.ok())
          << "prefix " << len << " of " << bytes.size() << " decoded";
    }
  }
  // Unknown / reserved tags.
  for (int tag : {0, 10, 11, 42, 255}) {
    const char byte = static_cast<char>(tag);
    size_t consumed = 0;
    EXPECT_FALSE(DecodeCommand(&byte, 1, &consumed).ok()) << tag;
  }
}

TEST(SessionCommandTest, CommandLogStreamRoundTrip) {
  std::mt19937_64 rng(13);
  CommandLog log;
  for (int i = 0; i < 300; ++i) log.push_back(RandomCommand(&rng));
  std::stringstream stream;
  ASSERT_TRUE(WriteCommandLog(log, &stream).ok());
  const std::string bytes = stream.str();
  auto read_back = ReadCommandLog(&stream);
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(*read_back, log);
  // Re-serializing yields byte-identical output (diffable logs).
  std::stringstream stream2;
  ASSERT_TRUE(WriteCommandLog(*read_back, &stream2).ok());
  EXPECT_EQ(stream2.str(), bytes);
}

TEST(SessionCommandTest, CommandLogRejectsCorruptStreams) {
  CommandLog log = {MakePref(1, 2, 0.5), MakeResolve()};
  std::stringstream good;
  ASSERT_TRUE(WriteCommandLog(log, &good).ok());
  const std::string bytes = good.str();

  {  // Bad magic.
    std::string corrupt = bytes;
    corrupt[0] = 'X';
    std::stringstream in(corrupt);
    EXPECT_FALSE(ReadCommandLog(&in).ok());
  }
  {  // Truncated mid-command.
    std::stringstream in(bytes.substr(0, bytes.size() - 3));
    EXPECT_FALSE(ReadCommandLog(&in).ok());
  }
  {  // Trailing garbage after the declared command count.
    std::stringstream in(bytes + "junk");
    EXPECT_FALSE(ReadCommandLog(&in).ok());
  }
  {  // A text event stream is not a command log.
    std::stringstream in("svgicevents 1\npref\t1\t2\t0.5\nresolve\nend\n");
    auto read = ReadCommandLog(&in);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionCommandTest, FileRoundTripIsExact) {
  std::mt19937_64 rng(23);
  CommandLog log;
  for (int i = 0; i < 50; ++i) log.push_back(RandomCommand(&rng));

  const std::string path = ::testing::TempDir() + "/commands_roundtrip.bin";
  ASSERT_TRUE(WriteCommandLogToFile(log, path).ok());
  auto read_back = ReadCommandLogFromFile(path);
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(*read_back, log);
  std::remove(path.c_str());
}

TEST(SessionCommandTest, FuzzedLogsNeverCrashTheReader) {
  // Byte flips, truncations, insertions and hostile command counts over
  // valid logs: ReadCommandLog must either decode a log or fail with
  // InvalidArgument — never crash, hang, or read out of bounds (the ASan
  // CI job enforces the latter).
  std::mt19937_64 rng(101);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  constexpr size_t kCountOffset = 4 + 4;  // magic + version
  for (int trial = 0; trial < 400; ++trial) {
    CommandLog log;
    const int commands = trial % 12;
    for (int i = 0; i < commands; ++i) log.push_back(RandomCommand(&rng));
    std::stringstream encoded;
    ASSERT_TRUE(WriteCommandLog(log, &encoded).ok());
    std::string bytes = encoded.str();

    for (int i = 0; i < 3; ++i) {
      if (coin(rng) < 0.6) {
        bytes[rng() % bytes.size()] = static_cast<char>(byte(rng));
      }
    }
    if (coin(rng) < 0.3) {
      // Hostile count: anything from one-off to the 64-bit maximum.
      const uint64_t hostile =
          coin(rng) < 0.5 ? log.size() + 1 + rng() % 8 : rng();
      for (int i = 0; i < 8; ++i) {
        bytes[kCountOffset + i] = static_cast<char>(hostile >> (8 * i));
      }
    }
    if (coin(rng) < 0.3) bytes.resize(rng() % (bytes.size() + 1));
    if (coin(rng) < 0.2) {
      bytes.insert(rng() % (bytes.size() + 1), 1,
                   static_cast<char>(byte(rng)));
    }

    std::stringstream in(bytes);
    auto read = ReadCommandLog(&in);
    if (read.ok()) {
      // Whatever decoded must re-encode to exactly the bytes read.
      std::stringstream again;
      ASSERT_TRUE(WriteCommandLog(*read, &again).ok());
      EXPECT_EQ(again.str(), bytes) << "trial " << trial;
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument)
          << "trial " << trial << ": " << read.status();
    }
  }
}

}  // namespace
}  // namespace savg
