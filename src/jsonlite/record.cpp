#include "jsonlite/record.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace chpo::json {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[n] = c;
  }
  return table;
}

std::string crc_hex(std::uint32_t crc) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[crc & 0xFu];
    crc >>= 4;
  }
  return out;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_record(const Value& value) {
  const std::string payload = serialize(value);
  std::string out = crc_hex(crc32(payload));
  out.push_back(' ');
  out += payload;
  out.push_back('\n');
  return out;
}

RecordDecode decode_record(std::string_view line) {
  RecordDecode decode;
  if (line.size() < 10 || line[8] != ' ') {
    decode.error = "malformed record frame (want '<crc32 hex> <json>')";
    return decode;
  }
  std::uint32_t want = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const char c = line[i];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9')
      digit = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint32_t>(c - 'a' + 10);
    else {
      decode.error = "malformed record frame (bad crc digit)";
      return decode;
    }
    want = (want << 4) | digit;
  }
  const std::string_view payload = line.substr(9);
  if (crc32(payload) != want) {
    decode.error = "crc mismatch (torn or corrupted record)";
    return decode;
  }
  try {
    decode.value = parse(payload);
  } catch (const JsonError& e) {
    decode.error = std::string("crc ok but payload unparseable: ") + e.what();
  }
  return decode;
}

RecordReplay read_records(const std::string& path) {
  RecordReplay replay;
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return replay;  // absent = empty log
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string bytes = buffer.str();

  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == pos) {  // blank line: tolerate, skip
      ++pos;
      continue;
    }
    RecordDecode decode;
    if (nl == std::string::npos)
      decode.error = "record lacks its terminating newline (torn write)";
    else
      decode = decode_record(std::string_view(bytes).substr(pos, nl - pos));
    if (!decode.ok()) {
      replay.torn_bytes = bytes.size() - pos;
      replay.torn_error = decode.error;
      return replay;
    }
    replay.records.push_back(std::move(decode.value));
    pos = nl + 1;
  }
  return replay;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool atomic_write_file(const std::string& path, std::string_view bytes, bool durable) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = write_all(fd, bytes);
  if (ok && durable) ok = ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (durable) {
    const std::string::size_type slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }
  return true;
}

}  // namespace chpo::json
