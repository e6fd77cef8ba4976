// CRC-tagged NDJSON record framing for durable append-only logs.
//
// The service daemon's write-ahead journal (daemon/journal.hpp) appends
// one record per state-changing event. A crash can tear the final write
// at any byte, so every record line carries a CRC32 of its payload:
//
//   <8 lowercase hex digits of crc32(payload)> <compact JSON payload>\n
//
// A reader walks the file line by line and stops at the first record
// whose CRC or JSON does not check out — everything before the torn tail
// is trusted, everything from it on is discarded (and reported, so the
// journal owner can warn). Compact serialization never emits raw
// newlines, so the line boundary is unambiguous. Trial checkpoints
// (hpo/checkpoint.hpp) are record logs of the same shape.
//
// The module also owns the one whole-file write policy (write_all,
// atomic_write_file) that the daemon manifest and the reuse cache share:
// how a durable file is written and re-read is decided here only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "jsonlite/json.hpp"

namespace chpo::json {

/// CRC-32 (IEEE 802.3, reflected) of `bytes`.
std::uint32_t crc32(std::string_view bytes);

/// Frame one record: "<crc32 hex> <compact json>\n".
std::string encode_record(const Value& value);

/// One attempted record decode. A failed decode means the line was torn
/// or corrupted — `error` says how.
struct RecordDecode {
  Value value;
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Decode one record line (without its trailing '\n').
RecordDecode decode_record(std::string_view line);

/// A whole record file replayed up to the last intact record.
struct RecordReplay {
  std::vector<Value> records;  ///< every record before the first bad line
  /// Bytes discarded from the first bad/torn line to end of file
  /// (0 = the file was fully intact).
  std::size_t torn_bytes = 0;
  /// Why the tail was discarded (empty when torn_bytes == 0).
  std::string torn_error;
  bool torn() const { return torn_bytes > 0; }
};

/// Read `path` and decode records until the first corrupt or torn line.
/// A missing file is an empty, untorn replay — append-only logs start
/// empty. A record is committed only with its '\n' (encode_record writes
/// both in one write), so a final line without one is part of the torn
/// tail even when its CRC checks out: a later append would otherwise glue
/// onto it.
RecordReplay read_records(const std::string& path);

/// write() all of `bytes` to `fd`, riding out EINTR and partial writes.
bool write_all(int fd, std::string_view bytes);

/// Replace `path` with `bytes` as a whole: write `<path>.tmp`, then rename
/// it over `path`, so a crash leaves either the old file or the complete
/// new one. `durable` adds an fsync of the file before the rename and of
/// its directory after it. Returns false (leaving no `.tmp` behind) when
/// any step fails.
bool atomic_write_file(const std::string& path, std::string_view bytes, bool durable);

}  // namespace chpo::json
