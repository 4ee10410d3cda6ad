#include "rfid/trace_io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "recovery/codec.h"

namespace eslev {
namespace rfid {

namespace {

constexpr char kBinaryTraceMagic[] = "ESLEV-TRACE";
constexpr uint32_t kBinaryTraceVersion = 1;

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

// Split one CSV line honoring quoted fields.
Result<std::vector<std::string>> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_quotes) return Status::IoError("unterminated quote in CSV line");
  fields.push_back(std::move(cur));
  return fields;
}

Result<Value> ParseValueAs(const std::string& text, TypeId type) {
  if (text == "\\N") return Value::Null();
  char* end = nullptr;
  switch (type) {
    case TypeId::kString:
      return Value::String(text);
    case TypeId::kInt64: {
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::IoError("bad INT field: " + text);
      }
      return Value::Int(v);
    }
    case TypeId::kTimestamp: {
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::IoError("bad TIMESTAMP field: " + text);
      }
      return Value::Time(v);
    }
    case TypeId::kDouble: {
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::IoError("bad DOUBLE field: " + text);
      }
      return Value::Double(v);
    }
    case TypeId::kBool:
      if (text == "1" || text == "TRUE") return Value::Bool(true);
      if (text == "0" || text == "FALSE") return Value::Bool(false);
      return Status::IoError("bad BOOL field: " + text);
    case TypeId::kNull:
      return Value::Null();
  }
  return Status::IoError("unsupported column type");
}

std::string RenderValue(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return "\\N";
    case TypeId::kBool:
      return v.bool_value() ? "1" : "0";
    case TypeId::kInt64:
      return std::to_string(v.int_value());
    case TypeId::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << v.double_value();
      return os.str();
    }
    case TypeId::kString:
      return QuoteField(v.string_value());
    case TypeId::kTimestamp:
      return std::to_string(v.time_value());
  }
  return "";
}

}  // namespace

Status SaveTraceCsv(const Workload& workload, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (const TimedReading& e : workload.events) {
    out << QuoteField(e.stream) << ',' << e.tuple.ts();
    for (const Value& v : e.tuple.values()) {
      out << ',' << RenderValue(v);
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Workload> LoadTraceCsv(
    const std::string& path,
    const std::map<std::string, SchemaPtr>& schemas) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  Workload workload;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ESLEV_ASSIGN_OR_RETURN(auto fields, SplitCsvLine(line));
    if (fields.size() < 2) {
      return Status::IoError("line " + std::to_string(line_no) +
                             ": too few fields");
    }
    const std::string& stream = fields[0];
    auto it = schemas.find(stream);
    if (it == schemas.end()) {
      return Status::NotFound("line " + std::to_string(line_no) +
                              ": unknown stream " + stream);
    }
    const SchemaPtr& schema = it->second;
    if (fields.size() != 2 + schema->num_fields()) {
      return Status::IoError("line " + std::to_string(line_no) +
                             ": arity mismatch for stream " + stream);
    }
    char* end = nullptr;
    const long long ts = std::strtoll(fields[1].c_str(), &end, 10);
    if (end == fields[1].c_str() || *end != '\0') {
      return Status::IoError("line " + std::to_string(line_no) +
                             ": bad timestamp");
    }
    std::vector<Value> values;
    values.reserve(schema->num_fields());
    for (size_t i = 0; i < schema->num_fields(); ++i) {
      ESLEV_ASSIGN_OR_RETURN(
          Value v, ParseValueAs(fields[2 + i], schema->field(i).type));
      values.push_back(std::move(v));
    }
    ESLEV_ASSIGN_OR_RETURN(Tuple tuple,
                           MakeTuple(schema, std::move(values), ts));
    workload.events.push_back({stream, std::move(tuple)});
  }
  return workload;
}

Status SaveTraceBinary(const Workload& workload, const std::string& path) {
  BinaryEncoder header;
  header.PutString(kBinaryTraceMagic);
  header.PutU32(kBinaryTraceVersion);
  header.PutU64(workload.events.size());

  // One encoder for the whole body: each stream's schema is written
  // inline once and back-referenced by every later event.
  BinaryEncoder body;
  for (const TimedReading& e : workload.events) {
    body.PutString(e.stream);
    body.PutTuple(e.tuple);
  }

  std::string file;
  AppendFrame(header.buffer(), &file);
  AppendFrame(body.buffer(), &file);
  return WriteFileAtomic(path, file);
}

Result<Workload> LoadTraceBinary(
    const std::string& path,
    const std::map<std::string, SchemaPtr>& schemas) {
  ESLEV_ASSIGN_OR_RETURN(std::string bytes, ReadFileAll(path));
  ESLEV_ASSIGN_OR_RETURN(FrameScanResult frames,
                         ScanFrames(bytes.data(), bytes.size()));
  if (frames.torn_tail || frames.payloads.size() != 2) {
    return Status::IoError("binary trace is truncated or malformed: " + path);
  }

  BinaryDecoder header(frames.payloads[0]);
  ESLEV_ASSIGN_OR_RETURN(std::string magic, header.GetString());
  if (magic != kBinaryTraceMagic) {
    return Status::IoError("not a binary trace file: " + path);
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kBinaryTraceVersion) {
    return Status::IoError("unsupported binary trace version " +
                           std::to_string(version) + ": " + path);
  }
  ESLEV_ASSIGN_OR_RETURN(uint64_t count, header.GetU64());

  // The count comes from the header but the events live in the body: an
  // event is a stream name plus a tuple.
  BinaryDecoder body(frames.payloads[1]);
  ESLEV_RETURN_NOT_OK(body.CheckCount(
      count, BinaryDecoder::kMinStringBytes + BinaryDecoder::kMinTupleBytes));
  Workload workload;
  workload.events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ESLEV_ASSIGN_OR_RETURN(std::string stream, body.GetString());
    ESLEV_ASSIGN_OR_RETURN(Tuple decoded, body.GetTuple());
    auto it = schemas.find(stream);
    if (it == schemas.end()) {
      return Status::NotFound("event " + std::to_string(i) +
                              ": unknown stream " + stream);
    }
    if (decoded.values().size() != it->second->num_fields()) {
      return Status::IoError("event " + std::to_string(i) +
                             ": arity mismatch for stream " + stream);
    }
    // Re-bind to the catalog schema so replayed tuples are
    // indistinguishable from freshly generated ones.
    std::vector<Value> values(decoded.values().begin(),
                              decoded.values().end());
    ESLEV_ASSIGN_OR_RETURN(
        Tuple tuple, MakeTuple(it->second, std::move(values), decoded.ts()));
    workload.events.push_back({std::move(stream), std::move(tuple)});
  }
  if (!body.AtEnd()) {
    return Status::IoError("binary trace has trailing bytes: " + path);
  }
  return workload;
}

}  // namespace rfid
}  // namespace eslev
