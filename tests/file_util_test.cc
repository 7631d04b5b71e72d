#include "util/file_util.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace stratlearn {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  // One flipped bit changes the checksum.
  EXPECT_NE(Crc32("123456789"), Crc32("123456788"));
}

TEST(ChecksummedFileTest, WriteReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/file_util_roundtrip";
  std::string payload = "stratlearn-checkpoint v1\nlearner pib\nrng 1 2 3 4\n";
  ASSERT_TRUE(WriteFileChecksummed(path, payload));
  Result<std::string> read = ReadFileChecksummed(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST(ChecksummedFileTest, MissingFileIsNotFound) {
  Result<std::string> read =
      ReadFileChecksummed(::testing::TempDir() + "/file_util_nope");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(ChecksummedFileTest, TruncationIsDetected) {
  std::string path = ::testing::TempDir() + "/file_util_truncated";
  ASSERT_TRUE(WriteFileChecksummed(path, "a payload worth keeping\n"));
  std::string contents = ReadAll(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents.substr(0, contents.size() - 5);
  }
  Result<std::string> read = ReadFileChecksummed(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("truncated"), std::string::npos);
}

TEST(ChecksummedFileTest, BitFlipIsDetected) {
  std::string path = ::testing::TempDir() + "/file_util_flipped";
  ASSERT_TRUE(WriteFileChecksummed(path, "a payload worth keeping\n"));
  std::string contents = ReadAll(path);
  contents[contents.size() - 3] ^= 0x01;  // flip one payload bit
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  Result<std::string> read = ReadFileChecksummed(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("CRC-32"), std::string::npos);
}

TEST(ChecksummedFileTest, ForeignFileHasNoHeader) {
  Result<std::string> decoded =
      DecodeChecksummed("just some text\n", "foreign");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("header"), std::string::npos);
}

TEST(ChecksummedFileTest, MalformedHeaderIsRejected) {
  EXPECT_FALSE(DecodeChecksummed("stratlearn-crc32 zz\npayload", "x").ok());
  EXPECT_FALSE(
      DecodeChecksummed("stratlearn-crc32 0badf00d xyz\npayload", "x").ok());
}

TEST(AtomicWriteTest, LeavesNoTempFileBehind) {
  std::string path = ::testing::TempDir() + "/file_util_atomic";
  ASSERT_TRUE(WriteFileAtomic(path, "contents"));
  EXPECT_EQ(ReadAll(path), "contents");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(WriteFileAtomicTest, OverwritesExistingContent) {
  std::string path = ::testing::TempDir() + "/atomic_overwrite.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first"));
  ASSERT_TRUE(WriteFileAtomic(path, "second"));
  EXPECT_EQ(ReadAll(path), "second");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stratlearn
