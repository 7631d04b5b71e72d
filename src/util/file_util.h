#ifndef STRATLEARN_UTIL_FILE_UTIL_H_
#define STRATLEARN_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace stratlearn {

/// Reads the whole file at `path`; NotFound when it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// file in the same directory, which is then renamed over `path`. A
/// reader (or a process killed mid-write) therefore sees either the old
/// file or the complete new one, never a torn prefix — the property the
/// checkpoint loader, OpenMetrics scrapers and STRATLEARN_JSON_OUT
/// report consumers rely on. Returns false on any I/O failure; the
/// temporary file is removed on failure.
bool WriteFileAtomic(const std::string& path, std::string_view contents);

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `data`.
uint32_t Crc32(std::string_view data);

/// First line of a checksummed file: "stratlearn-crc32 <crc-8hex> <len>".
inline constexpr std::string_view kChecksumHeaderTag = "stratlearn-crc32";

/// Wraps `payload` in a one-line CRC-32 + length header and writes the
/// result atomically (see WriteFileAtomic). The learner checkpoints use
/// this so a torn, truncated or bit-flipped file is *detected* on read
/// instead of silently corrupting a resumed run.
bool WriteFileChecksummed(const std::string& path, std::string_view payload);

/// Verifies a checksummed container held in memory and returns its
/// payload. `name` scopes the error messages (a path, or "<input>").
/// FailedPrecondition when the header is missing/malformed, the length
/// disagrees (truncation), or the CRC does not match (corruption).
Result<std::string> DecodeChecksummed(std::string_view contents,
                                      const std::string& name);

/// Reads a WriteFileChecksummed file and returns the verified payload.
/// NotFound when the file cannot be opened; otherwise as
/// DecodeChecksummed.
Result<std::string> ReadFileChecksummed(const std::string& path);

}  // namespace stratlearn

#endif  // STRATLEARN_UTIL_FILE_UTIL_H_
