#include "util/file_util.h"

#include <array>
#include <cstdio>
#include <cstdlib>

#include <fstream>
#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace stratlearn {

bool WriteFileAtomic(const std::string& path, std::string_view contents) {
  // The temp file must live in the target directory: rename(2) is only
  // atomic within one filesystem.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

uint32_t Crc32(std::string_view data) {
  // Table-driven CRC-32 (reflected 0xEDB88320); built once, lazily.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool WriteFileChecksummed(const std::string& path, std::string_view payload) {
  char header[64];
  std::snprintf(header, sizeof(header), "%s %08x %zu\n",
                std::string(kChecksumHeaderTag).c_str(), Crc32(payload),
                payload.size());
  std::string contents = header;
  contents.append(payload);
  return WriteFileAtomic(path, contents);
}

Result<std::string> DecodeChecksummed(std::string_view contents,
                                      const std::string& name) {
  size_t newline = contents.find('\n');
  if (newline == std::string::npos ||
      !StartsWith(contents, kChecksumHeaderTag)) {
    return Status::FailedPrecondition(StrFormat(
        "'%s' has no '%s' header", name.c_str(),
        std::string(kChecksumHeaderTag).c_str()));
  }
  std::string header(contents.substr(0, newline));
  std::vector<std::string> fields;
  for (const std::string& f : Split(header, ' ')) {
    if (!Trim(f).empty()) fields.emplace_back(Trim(f));
  }
  if (fields.size() != 3) {
    return Status::FailedPrecondition(
        StrFormat("'%s' has a malformed checksum header", name.c_str()));
  }
  char* end = nullptr;
  uint32_t expected_crc =
      static_cast<uint32_t>(std::strtoul(fields[1].c_str(), &end, 16));
  if (end != fields[1].c_str() + fields[1].size()) {
    return Status::FailedPrecondition(
        StrFormat("'%s' has a malformed checksum header", name.c_str()));
  }
  unsigned long long expected_len = std::strtoull(fields[2].c_str(), &end, 10);
  if (end != fields[2].c_str() + fields[2].size()) {
    return Status::FailedPrecondition(
        StrFormat("'%s' has a malformed checksum header", name.c_str()));
  }
  std::string payload(contents.substr(newline + 1));
  if (payload.size() != expected_len) {
    return Status::FailedPrecondition(StrFormat(
        "'%s' is truncated: header promises %llu payload bytes, found %zu",
        name.c_str(), expected_len, payload.size()));
  }
  uint32_t actual_crc = Crc32(payload);
  if (actual_crc != expected_crc) {
    return Status::FailedPrecondition(StrFormat(
        "'%s' is corrupt: CRC-32 mismatch (header %08x, payload %08x)",
        name.c_str(), expected_crc, actual_crc));
  }
  return payload;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<std::string> ReadFileChecksummed(const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  return DecodeChecksummed(*contents, path);
}

}  // namespace stratlearn
