// Unit tests for the JSON parser/serializer, including the paper's
// Listing 1 search-space file.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "jsonlite/json.hpp"
#include "jsonlite/record.hpp"
#include "jsonlite/wire.hpp"

namespace chpo::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5e-2").as_double(), -0.025);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntVsDoubleDistinction) {
  EXPECT_TRUE(parse("20").is_int());
  EXPECT_TRUE(parse("20.0").is_double());
  EXPECT_TRUE(parse("2e1").is_double());
  // Int coerces through as_double; double does not coerce to as_int.
  EXPECT_DOUBLE_EQ(parse("20").as_double(), 20.0);
  EXPECT_THROW(parse("20.0").as_int(), JsonError);
}

TEST(JsonParse, Listing1ConfigFile) {
  const char* listing1 = R"({
    "optimizer": ["Adam", "SGD", "RMSprop"],
    "num_epochs": [20, 50, 100],
    "batch_size": [32, 64, 128]
  })";
  const Value v = parse(listing1);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at("optimizer").at(0).as_string(), "Adam");
  EXPECT_EQ(v.at("num_epochs").at(2).as_int(), 100);
  EXPECT_EQ(v.at("batch_size").size(), 3u);
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse(R"({"a": {"b": [1, {"c": true}]}})");
  EXPECT_TRUE(v.at("a").at("b").at(1).at("c").as_bool());
}

TEST(JsonParse, ObjectKeyOrderPreserved) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& obj = v.as_object();
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, Whitespace) {
  EXPECT_EQ(parse(" \n\t [ 1 , 2 ] \r\n").size(), 2u);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(parse("[]").size(), 0u);
  EXPECT_EQ(parse("{}").size(), 0u);
}

TEST(JsonParse, ErrorsCarryPosition) {
  try {
    parse("{\n  \"a\": ,\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(parse(""), JsonError);
  EXPECT_THROW(parse("{"), JsonError);
  EXPECT_THROW(parse("[1,]"), JsonError);
  EXPECT_THROW(parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(parse("\"unterminated"), JsonError);
  EXPECT_THROW(parse("tru"), JsonError);
  EXPECT_THROW(parse("1 2"), JsonError);
  EXPECT_THROW(parse("0x10"), JsonError);
  EXPECT_THROW(parse("1."), JsonError);
  EXPECT_THROW(parse("1e"), JsonError);
  EXPECT_THROW(parse("\"a\\q\""), JsonError);
}

TEST(JsonSerialize, CompactRoundTrip) {
  const char* text = R"({"optimizer":["Adam","SGD"],"num_epochs":[20,50],"flag":true,"x":null})";
  const Value v = parse(text);
  EXPECT_EQ(serialize(v), text);
  EXPECT_EQ(parse(serialize(v)), v);
}

TEST(JsonSerialize, PrettyParsesBack) {
  const Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": 1.25})");
  const std::string pretty = serialize_pretty(v);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), v);
}

TEST(JsonSerialize, EscapesControlCharacters) {
  const Value v(std::string("a\nb\x01"));
  const std::string s = serialize(v);
  EXPECT_EQ(s, "\"a\\nb\\u0001\"");
  EXPECT_EQ(parse(s), v);
}

TEST(JsonSerialize, NonFiniteBecomesNull) {
  EXPECT_EQ(serialize(Value(std::nan(""))), "null");
}

TEST(JsonValue, SetInsertAndOverwrite) {
  Value v;
  v.set("a", Value(1));
  v.set("b", Value(2));
  v.set("a", Value(9));
  EXPECT_EQ(v.at("a").as_int(), 9);
  EXPECT_EQ(v.size(), 2u);
}

TEST(JsonValue, FindAndContains) {
  const Value v = parse(R"({"k": 1})");
  EXPECT_TRUE(v.contains("k"));
  EXPECT_FALSE(v.contains("missing"));
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), JsonError);
}

TEST(JsonValue, NumericCrossTypeEquality) {
  EXPECT_EQ(parse("3"), parse("3.0"));
  EXPECT_NE(parse("3"), parse("3.5"));
}

TEST(JsonValue, TypeMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), JsonError);
  EXPECT_THROW(v.as_string(), JsonError);
  EXPECT_THROW(v.at("k"), JsonError);
  EXPECT_THROW(v.at(5), JsonError);
}

TEST(JsonFile, MissingFileThrows) {
  EXPECT_THROW(parse_file("/nonexistent/definitely_missing.json"), JsonError);
}

TEST(Wire, EncodeFrameAppendsNewline) {
  Value v;
  v.set("op", Value("ping"));
  const std::string frame = encode_frame(v);
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame.back(), '\n');
  EXPECT_EQ(frame.find('\n'), frame.size() - 1);  // exactly one newline
  EXPECT_EQ(parse(frame), v);                     // parse ignores trailing ws
}

TEST(Wire, DecoderReassemblesSplitChunks) {
  LineDecoder dec;
  dec.feed(R"({"op":"sub)");
  EXPECT_FALSE(dec.next().has_value());
  dec.feed("mit\"}\n{\"op\":\"list\"}\n");
  auto a = dec.next();
  ASSERT_TRUE(a.has_value() && a->ok());
  EXPECT_EQ(a->value.at("op").as_string(), "submit");
  auto b = dec.next();
  ASSERT_TRUE(b.has_value() && b->ok());
  EXPECT_EQ(b->value.at("op").as_string(), "list");
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Wire, DecoderRecoversAfterMalformedLine) {
  LineDecoder dec;
  dec.feed("{not json\n{\"op\":\"ping\"}\n");
  auto bad = dec.next();
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->ok());
  EXPECT_FALSE(bad->error.empty());
  EXPECT_EQ(bad->raw, "{not json");
  auto good = dec.next();
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(good->ok());
  EXPECT_EQ(good->value.at("op").as_string(), "ping");
}

TEST(Wire, DecoderSkipsBlankLinesAndCrlf) {
  LineDecoder dec;
  dec.feed("\n  \t\n{\"n\":1}\r\n");
  auto f = dec.next();
  ASSERT_TRUE(f.has_value() && f->ok());
  EXPECT_EQ(f->value.at("n").as_int(), 1);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Wire, DecoderBoundsLineLength) {
  LineDecoder dec;
  dec.set_max_line_bytes(16);
  // The limit trips the instant it is crossed, before any newline.
  dec.feed(std::string(17, 'x'));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->ok());
  EXPECT_TRUE(f->fatal);
  EXPECT_NE(f->error.find("exceeds"), std::string::npos);
  // The rest of the oversized line is swallowed without a second frame...
  dec.feed(std::string(100, 'x'));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_LE(dec.pending_bytes(), 16u);
  // ...and the next line after its newline decodes normally.
  dec.feed("xxx\n{\"op\":\"ping\"}\n");
  auto good = dec.next();
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(good->ok());
  EXPECT_EQ(good->value.at("op").as_string(), "ping");
}

TEST(Wire, DecoderBoundsLineSplitAcrossChunks) {
  LineDecoder dec;
  dec.set_max_line_bytes(8);
  dec.feed("{\"op\"");  // 5 bytes, under the cap
  EXPECT_FALSE(dec.next().has_value());
  dec.feed(":\"submit\"}");  // crosses the cap mid-line
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->fatal);
  // A line exactly at the cap is fine.
  LineDecoder ok;
  ok.set_max_line_bytes(8);
  ok.feed("{\"n\":1}\n");  // 7 bytes + newline
  auto g = ok.next();
  ASSERT_TRUE(g.has_value() && g->ok());
  EXPECT_EQ(g->value.at("n").as_int(), 1);
}

TEST(Wire, RoundTripThroughDecoder) {
  Value v;
  v.set("op", Value("submit"));
  v.set("budget", Value(8));
  v.set("weight", Value(2.5));
  LineDecoder dec;
  const std::string frame = encode_frame(v);
  for (char c : frame) dec.feed(std::string_view(&c, 1));  // worst-case framing
  auto f = dec.next();
  ASSERT_TRUE(f.has_value() && f->ok());
  EXPECT_EQ(f->value, v);
}

Value record(int n) {
  Value v;
  v.set("rec", Value("test"));
  v.set("n", Value(n));
  return v;
}

std::string temp_record_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("chpo_record_test_") + name + ".ndjson"))
      .string();
}

TEST(Record, EncodeDecodeRoundTrip) {
  const Value v = record(7);
  const std::string line = encode_record(v);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  // "<8 hex> <payload>": fixed-width checksum, single separating space.
  EXPECT_EQ(line[8], ' ');
  const RecordDecode d = decode_record(std::string_view(line).substr(0, line.size() - 1));
  ASSERT_TRUE(d.ok()) << d.error;
  EXPECT_EQ(d.value, v);
}

TEST(Record, DecodeRejectsCorruption) {
  std::string line = encode_record(record(1));
  line.pop_back();  // strip '\n'
  // Flip one payload byte: CRC must catch it.
  std::string flipped = line;
  flipped[flipped.size() - 2] ^= 0x01;
  EXPECT_FALSE(decode_record(flipped).ok());
  // Damage the checksum itself.
  std::string bad_crc = line;
  bad_crc[0] = bad_crc[0] == 'f' ? '0' : 'f';
  EXPECT_FALSE(decode_record(bad_crc).ok());
  // Truncate mid-payload (a torn write).
  EXPECT_FALSE(decode_record(std::string_view(line).substr(0, line.size() / 2)).ok());
  // Garbage shorter than the checksum header.
  EXPECT_FALSE(decode_record("zzz").ok());
  EXPECT_FALSE(decode_record("").ok());
}

TEST(Record, ReadRecordsStopsAtTornTail) {
  const std::string path = temp_record_path("torn");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << encode_record(record(1)) << encode_record(record(2));
    const std::string torn = encode_record(record(3));
    out.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));  // torn write
  }
  const RecordReplay replay = read_records(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].at("n").as_int(), 1);
  EXPECT_EQ(replay.records[1].at("n").as_int(), 2);
  EXPECT_TRUE(replay.torn());
  EXPECT_GT(replay.torn_bytes, 0u);
  EXPECT_FALSE(replay.torn_error.empty());

  // A record commits with its newline: an intact payload without one is
  // still the torn tail, so an append after it cannot glue onto it.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string last = encode_record(record(2));
    out << encode_record(record(1)) << last.substr(0, last.size() - 1);
  }
  const RecordReplay unterminated = read_records(path);
  ASSERT_EQ(unterminated.records.size(), 1u);
  EXPECT_TRUE(unterminated.torn());
  EXPECT_EQ(unterminated.torn_bytes, encode_record(record(2)).size() - 1);
  std::filesystem::remove(path);
}

TEST(Record, ReadRecordsIntactFileAndMissingFile) {
  const std::string path = temp_record_path("intact");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 5; ++i) out << encode_record(record(i));
  }
  const RecordReplay replay = read_records(path);
  EXPECT_EQ(replay.records.size(), 5u);
  EXPECT_FALSE(replay.torn());
  std::filesystem::remove(path);

  const RecordReplay missing = read_records(path);
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.torn());
}

TEST(Record, CorruptRecordMidFileDiscardsEverythingAfter) {
  const std::string path = temp_record_path("midfile");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << encode_record(record(1));
    std::string bad = encode_record(record(2));
    bad[10] ^= 0x01;  // corrupt the payload of the middle record
    out << bad;
    out << encode_record(record(3));
  }
  // Append-only logs trust nothing after the first bad record: the tail
  // could be a resurrected older write landing past the corruption.
  const RecordReplay replay = read_records(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].at("n").as_int(), 1);
  EXPECT_TRUE(replay.torn());
  std::filesystem::remove(path);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Record, AtomicWriteFileReplacesWholeFileAndCleansUp) {
  const std::string path = temp_record_path("atomic");
  for (const bool durable : {false, true}) {
    ASSERT_TRUE(atomic_write_file(path, "a longer first version\n", durable));
    EXPECT_EQ(slurp(path), "a longer first version\n");
    ASSERT_TRUE(atomic_write_file(path, "short\n", durable));
    EXPECT_EQ(slurp(path), "short\n") << "durable=" << durable;  // replaced, not overwritten
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << "durable=" << durable;
  }
  std::filesystem::remove(path);

  const std::string missing =
      (std::filesystem::temp_directory_path() / "chpo_no_such_dir" / "file.json").string();
  EXPECT_FALSE(atomic_write_file(missing, "x", true));
  EXPECT_FALSE(std::filesystem::exists(missing + ".tmp"));
}

// The JSON payloads of a corpus file that parse; malformed lines (there on
// purpose) are skipped. Record lines carry "<crc> " before their payload.
std::vector<Value> parsable_corpus_values(const std::filesystem::path& file, bool records) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::istringstream lines(text.str());
  std::vector<Value> values;
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t space = line.find(' ');
    const std::string payload =
        records && space != std::string::npos ? line.substr(space + 1) : line;
    try {
      values.push_back(parse(payload));
    } catch (const JsonError&) {
    }
  }
  return values;
}

// Every corpus line that parses must serialize to a fixed point: parsing
// the serialized text and serializing again gives the same bytes, compact
// and pretty. This walks whatever the corpus directories hold, inputs a
// fuzzer added included.
TEST(JsonRoundTrip, FuzzCorporaSerializeToAFixedPoint) {
  std::size_t parsed = 0;
  for (const char* corpus : {"wire", "records"}) {
    const std::filesystem::path dir = std::filesystem::path(CHPO_FUZZ_CORPUS_DIR) / corpus;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      for (const Value& value : parsable_corpus_values(entry.path(), corpus == std::string("records"))) {
        ++parsed;
        const std::string compact = serialize(value);
        const std::string pretty = serialize_pretty(value);
        EXPECT_EQ(serialize(parse(compact)), compact) << entry.path();
        EXPECT_EQ(serialize_pretty(parse(pretty)), pretty) << entry.path();
      }
    }
  }
  EXPECT_GT(parsed, 10u);
}

// The committed seed files serialize to pinned bytes, so a change to the
// value model that alters any output (key order, number formatting,
// escapes) shows here. The list is fixed: a fuzzer run that adds inputs to
// the corpus directories leaves the hash alone.
TEST(JsonRoundTrip, FuzzCorporaSerializeToPinnedBytes) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  const auto add = [&](const std::string& bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash ^= 0xffU;  // separator
    hash *= 1099511628211ULL;
  };
  const std::vector<std::string> seeds = {
      "wire/crlf_and_blank",     "wire/malformed_json",   "wire/oversized_line",
      "wire/split_unicode",      "wire/trailing_partial", "wire/valid_lines",
      "records/bad_crc",         "records/blank_lines",   "records/intact_journal",
      "records/not_hex",         "records/short_frame",   "records/torn_tail",
  };
  std::size_t parsed = 0;
  for (const std::string& seed : seeds) {
    const std::filesystem::path file = std::filesystem::path(CHPO_FUZZ_CORPUS_DIR) / seed;
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    for (const Value& value : parsable_corpus_values(file, seed.rfind("records/", 0) == 0)) {
      ++parsed;
      add(serialize(value));
      add(serialize_pretty(value));
    }
  }
  EXPECT_GT(parsed, 10u);
  EXPECT_EQ(hash, 5708231820760878687ULL) << "serialized seed bytes changed";
}

}  // namespace
}  // namespace chpo::json
