#include "trace/trace_io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <deque>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "trace/trace_check.h"

namespace drlnoc::trace {

namespace {

constexpr char kMagic[4] = {'D', 'R', 'L', 'T'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kRecordBytes = 32;
constexpr std::size_t kMaxReservedRecords = std::size_t{1} << 16;

// --- little-endian packing (portable, independent of host byte order) ------
void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Little-endian reads from a buffer whose bounds the caller has already
/// checked: read_binary checks every record and dependency slice against
/// the data size up front, from the header counts.
class ByteCursor {
 public:
  explicit ByteCursor(const char* p) : p_(p) {}

  std::uint16_t u16() { return static_cast<std::uint16_t>(uint_n(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint_n(4)); }
  std::uint64_t u64() { return uint_n(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

 private:
  // Portable, independent of host byte order; compilers fold the loop into
  // one load.
  std::uint64_t uint_n(int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i]))
           << (8 * i);
    }
    p_ += bytes;
    return v;
  }

  const char* p_;
};

std::string format_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);  // shortest round-trip representation
}

double parse_double(std::string_view token, const char* what) {
  double v = 0.0;
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (res.ec != std::errc{} || res.ptr != token.data() + token.size()) {
    throw std::runtime_error(std::string("trace text: bad ") + what + ": " +
                             std::string(token));
  }
  return v;
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  std::uint64_t v = 0;
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (res.ec != std::errc{} || res.ptr != token.data() + token.size()) {
    throw std::runtime_error(std::string("trace text: bad ") + what + ": " +
                             std::string(token));
  }
  return v;
}

/// `token` as a whole number of type T; false when it is empty, malformed
/// or out of range.
template <typename T>
bool parse_whole(std::string_view token, T& out) {
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return !token.empty() && res.ec == std::errc{} &&
         res.ptr == token.data() + token.size();
}

/// Whitespace-separated tokens of one line, as views into it.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// The next token; empty at the end of the line.
  std::string_view next() {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

 private:
  /// The C locale's isspace: ' ', '\t', '\n', '\v', '\f', '\r'. (The set
  /// lookups of find_first_of cost more than the whole number parse.)
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view rest_;
};

constexpr std::size_t kWindowBytes = std::size_t{1} << 16;

/// Reads a seekable stream through one fixed buffer, so a `.drltrb` read
/// holds at most kWindowBytes of the file at a time, however large it is.
/// Positions count from where the stream stood at construction.
class Window {
 public:
  explicit Window(std::streambuf& sb) : sb_(sb), buf_(kWindowBytes) {
    origin_ = sb.pubseekoff(0, std::ios::cur, std::ios::in);
    const std::streamoff end = sb.pubseekoff(0, std::ios::end, std::ios::in);
    sb.pubseekpos(origin_, std::ios::in);
    if (end > origin_) size_ = static_cast<std::uint64_t>(end - origin_);
  }

  /// Bytes from the starting position to the end of the stream.
  std::uint64_t size() const { return size_; }

  /// The next `n` <= kWindowBytes bytes. The caller has checked them
  /// against size(), so running short means the stream itself failed.
  const char* take(std::size_t n) {
    if (end_ - begin_ < n) refill(n);
    const char* p = buf_.data() + begin_;
    begin_ += n;
    return p;
  }

  /// Makes the next take() start at byte `pos`; free when `pos` is still
  /// in the buffer.
  void seek(std::uint64_t pos) {
    if (pos >= base_ && pos - base_ <= end_) {
      begin_ = static_cast<std::size_t>(pos - base_);
      return;
    }
    if (sb_.pubseekpos(origin_ + static_cast<std::streamoff>(pos),
                       std::ios::in) < 0) {
      throw std::runtime_error("trace binary: seek failed");
    }
    base_ = pos;
    begin_ = end_ = 0;
  }

 private:
  void refill(std::size_t n) {
    const std::size_t kept = end_ - begin_;
    std::memmove(buf_.data(), buf_.data() + begin_, kept);
    base_ += begin_;
    begin_ = 0;
    const std::streamsize got =
        sb_.sgetn(buf_.data() + kept,
                  static_cast<std::streamsize>(kWindowBytes - kept));
    end_ = kept + static_cast<std::size_t>(std::max<std::streamsize>(got, 0));
    if (end_ < n) throw std::runtime_error("trace binary: read failed");
  }

  std::streambuf& sb_;
  std::vector<char> buf_;
  std::streamoff origin_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t base_ = 0;  ///< stream position of buf_[0]
  std::size_t begin_ = 0;   ///< next unread byte of buf_
  std::size_t end_ = 0;     ///< end of the bytes read into buf_
};

/// Fills a decoded trace's dependency table: each entry's id becomes the
/// position of the record carrying it, through the one id index a read
/// builds. An id that names no record is stored as IdIndex::kAbsent and
/// the first such entry noted, so that finish() reports it (or an earlier
/// rule's failure) in Trace::validate's order.
class Resolver {
 public:
  Resolver(Trace& trace, std::size_t entries)
      : trace_(trace), index_(trace.records) {
    trace_.deps.resize(entries);
  }

  void set(std::size_t entry, std::uint64_t id) {
    const std::uint32_t pos = index_.find(id);
    trace_.deps[entry] = pos;
    if (pos == detail::IdIndex::kAbsent && entry < undecoded_.unknown_entry) {
      undecoded_.unknown_entry = entry;
      undecoded_.unknown_id = id;
    }
  }

  /// Validates the trace, reporting `long_record` (the first record whose
  /// length did not fit 16 bits, if any) as a length error.
  void finish(std::size_t long_record = SIZE_MAX) {
    undecoded_.long_record = long_record;
    detail::check(trace_, index_, undecoded_);
  }

 private:
  Trace& trace_;
  detail::IdIndex index_;
  detail::Undecoded undecoded_;
};

/// The file size a `.drltrb` header declares, in decimal, or "more than
/// 2^64" when it does not fit in 64 bits.
std::string declared_bytes(std::uint64_t records, std::uint64_t deps) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (records > (kMax - kHeaderBytes) / kRecordBytes) return "more than 2^64";
  const std::uint64_t base = kHeaderBytes + kRecordBytes * records;
  if (deps > (kMax - base) / 8) return "more than 2^64";
  return std::to_string(base + 8 * deps);
}

void write_text_unchecked(std::ostream& os, const Trace& trace) {
  os << "drltrc " << kTraceFormatVersion << "\n";
  os << "nodes " << trace.nodes << "\n";
  os << "default_length " << trace.default_length << "\n";
  os << "records " << trace.records.size() << "\n";
  os << "# id src dst time flits [dep,dep,...]\n";
  for (const TraceRecord& r : trace.records) {
    os << r.id << ' ' << r.src << ' ' << r.dst << ' ' << format_double(r.time)
       << ' ' << r.length;
    char sep = ' ';
    for (const std::uint32_t p : trace.deps_of(r)) {
      os << sep << trace.records[p].id;
      sep = ',';
    }
    os << '\n';
  }
}

void write_binary_unchecked(std::ostream& os, const Trace& trace) {
  // Packed into one buffer that is written out whenever it could not take
  // another record, so a write holds at most kWindowBytes of the file.
  std::string buf;
  buf.reserve(kWindowBytes);
  const auto spill = [&os, &buf](std::size_t room) {
    if (buf.size() + room > kWindowBytes) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  };
  std::uint64_t edges = 0;
  for (const TraceRecord& r : trace.records) edges += r.dep_count;
  buf.append(kMagic, sizeof(kMagic));
  put_u16(buf, static_cast<std::uint16_t>(kTraceFormatVersion));
  put_u16(buf, 0);  // flags, reserved
  put_u32(buf, static_cast<std::uint32_t>(trace.nodes));
  put_u32(buf, static_cast<std::uint32_t>(trace.default_length));
  put_u64(buf, trace.records.size());
  put_u64(buf, edges);

  // Slices back to back in record order; validation caps the edges at
  // 2^32 - 1, so the 32-bit offsets cannot wrap.
  std::uint32_t dep_offset = 0;
  for (const TraceRecord& r : trace.records) {
    spill(kRecordBytes);
    put_u64(buf, r.id);
    put_u32(buf, static_cast<std::uint32_t>(r.src));
    put_u32(buf, static_cast<std::uint32_t>(r.dst));
    put_u64(buf, std::bit_cast<std::uint64_t>(r.time));
    put_u16(buf, r.length);
    put_u16(buf, r.dep_count);
    put_u32(buf, dep_offset);
    dep_offset += r.dep_count;
  }
  for (const TraceRecord& r : trace.records) {
    for (const std::uint32_t p : trace.deps_of(r)) {
      spill(8);
      put_u64(buf, trace.records[p].id);
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace

void TraceWriter::write_text(std::ostream& os, const Trace& trace) {
  trace.validate();
  write_text_unchecked(os, trace);
}

void TraceWriter::write_binary(std::ostream& os, const Trace& trace) {
  trace.validate();
  write_binary_unchecked(os, trace);
}

Trace TraceReader::read_text(std::istream& is) {
  Trace trace;
  trace.default_length = 4;
  bool saw_version = false;
  bool saw_nodes = false;
  std::size_t long_record = SIZE_MAX;  // first length outside 16 bits
  // The dependency table as ids, until every record is known. A deque
  // grows in small blocks: a doubling vector would copy and fault in about
  // three times the table's size on the way.
  std::deque<std::uint64_t> dep_ids;
  std::string buffer;  // one line at a time, reused
  while (std::getline(is, buffer)) {
    const std::string_view line =
        std::string_view(buffer).substr(0, buffer.find('#'));
    Tokens tokens(line);
    const std::string_view first = tokens.next();
    if (first.empty()) continue;  // blank / comment-only line

    if (!saw_version) {
      if (first != "drltrc") {
        throw std::runtime_error(
            "trace text: missing 'drltrc <version>' header");
      }
      int version = 0;
      if (!parse_whole(tokens.next(), version) ||
          version != kTraceFormatVersion) {
        throw std::runtime_error("trace text: unsupported version");
      }
      saw_version = true;
      continue;
    }
    if (first == "nodes") {
      if (!parse_whole(tokens.next(), trace.nodes)) {
        throw std::runtime_error("trace text: bad nodes");
      }
      saw_nodes = true;
      continue;
    }
    if (first == "default_length") {
      if (!parse_whole(tokens.next(), trace.default_length)) {
        throw std::runtime_error("trace text: bad default_length");
      }
      continue;
    }
    if (first == "records") {
      // Only a preallocation hint, so a corrupt count may not reserve
      // more than a bounded amount up front.
      std::size_t n = 0;
      if (parse_whole(tokens.next(), n)) {
        trace.records.reserve(std::min(n, kMaxReservedRecords));
      }
      continue;
    }

    // A record line: id src dst time flits [deps]
    TraceRecord rec;
    rec.id = parse_u64(first, "record id");
    const std::string_view src = tokens.next();
    const std::string_view dst = tokens.next();
    const std::string_view time = tokens.next();
    const std::string_view length = tokens.next();
    int flits = 0;
    if (!parse_whole(src, rec.src) || !parse_whole(dst, rec.dst) ||
        time.empty() || !parse_whole(length, flits)) {
      throw std::runtime_error("trace text: malformed record line: " +
                               std::string(line));
    }
    rec.time = parse_double(time, "record time");
    if (flits >= 0 && flits <= 0xffff) {
      rec.length = static_cast<std::uint16_t>(flits);
    } else if (long_record == SIZE_MAX) {
      long_record = trace.records.size();  // validation reports it in order
    }
    std::string_view deps = tokens.next();
    const std::size_t dep_begin = dep_ids.size();
    if (!deps.empty()) {
      for (;;) {
        const std::size_t comma = deps.find(',');
        dep_ids.push_back(parse_u64(deps.substr(0, comma), "dependency id"));
        if (comma == std::string_view::npos) break;
        deps.remove_prefix(comma + 1);
      }
    }
    if (dep_ids.size() - dep_begin > 0xffff) {
      throw std::runtime_error("trace text: > 65535 dependencies on record " +
                               std::to_string(rec.id));
    }
    if (dep_ids.size() > detail::kMaxEdges) {
      throw std::runtime_error(
          "trace text: more than 2^32 - 1 dependency edges");
    }
    rec.dep_begin = static_cast<std::uint32_t>(dep_begin);
    rec.dep_count = static_cast<std::uint16_t>(dep_ids.size() - dep_begin);
    const std::string_view extra = tokens.next();
    if (!extra.empty()) {
      // Deps are comma-separated in one token; trailing tokens would
      // otherwise be dropped silently (e.g. space-separated deps).
      throw std::runtime_error("trace text: unexpected trailing token '" +
                               std::string(extra) +
                               "' on record line: " + std::string(line));
    }
    trace.records.push_back(std::move(rec));
  }
  if (!saw_version) throw std::runtime_error("trace text: empty input");
  if (!saw_nodes) throw std::runtime_error("trace text: missing 'nodes' line");

  Resolver deps(trace, dep_ids.size());
  std::size_t entry = 0;
  for (const std::uint64_t id : dep_ids) deps.set(entry++, id);
  deps.finish(long_record);
  return trace;
}

Trace TraceReader::read_binary(std::istream& is) {
  // A stream that cannot seek (a pipe, say) cannot report its size, so it
  // is first copied into memory. Either way the header counts are checked
  // against the size before anything is allocated.
  std::stringbuf copy;
  std::streambuf* sb = is.rdbuf();
  if (sb == nullptr || sb->pubseekoff(0, std::ios::cur, std::ios::in) < 0) {
    if (sb != nullptr) std::ostream(&copy) << sb;
    sb = &copy;
  }
  Window in(*sb);
  const std::uint64_t size = in.size();
  if (size < sizeof(kMagic) ||
      std::memcmp(in.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("trace binary: bad magic");
  }
  if (size < kHeaderBytes) {
    throw std::runtime_error("trace binary: truncated header: " +
                             std::to_string(size) + " of " +
                             std::to_string(kHeaderBytes) + " bytes");
  }
  ByteCursor header(in.take(kHeaderBytes - sizeof(kMagic)));
  const std::uint16_t version = header.u16();
  if (version != kTraceFormatVersion) {
    throw std::runtime_error("trace binary: unsupported version " +
                             std::to_string(version));
  }
  header.u16();  // flags
  Trace trace;
  trace.nodes = static_cast<int>(header.u32());
  trace.default_length = static_cast<int>(header.u32());
  const std::uint64_t record_count = header.u64();
  const std::uint64_t dep_total = header.u64();

  // Counts are checked against the bytes present by division, before any
  // multiply or allocation, so no header value can wrap past the check.
  const std::uint64_t complete = (size - kHeaderBytes) / kRecordBytes;
  if (record_count > complete) {
    // Point at the first record the file ends inside of, so a corrupted
    // artifact is diagnosable without a hex dump.
    throw std::runtime_error(
        "trace binary: truncated file: header declares " +
        std::to_string(record_count) + " records but the data ends inside "
        "record " + std::to_string(complete) + " (" + std::to_string(size) +
        " of " + declared_bytes(record_count, dep_total) + " bytes)");
  }
  const std::uint64_t deps_base = kHeaderBytes + kRecordBytes * record_count;
  const std::uint64_t have = (size - deps_base) / 8;
  if (dep_total > have) {
    throw std::runtime_error(
        "trace binary: truncated file: header declares " +
        std::to_string(dep_total) + " dependency entries but only " +
        std::to_string(have) + " fit in the data");
  }
  if (record_count >= detail::IdIndex::kAbsent) {
    throw std::runtime_error("trace binary: more than 2^32 - 2 records");
  }

  // The records decode in place, dep_begin holding the file's slice offset
  // for now.
  const auto n = static_cast<std::size_t>(record_count);
  trace.records.resize(n);
  bool writer_layout = true;  // slices back to back in record order
  std::uint64_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord& r = trace.records[i];
    ByteCursor cur(in.take(kRecordBytes));
    r.id = cur.u64();
    r.src = cur.i32();
    r.dst = cur.i32();
    r.time = cur.f64();
    r.length = cur.u16();
    r.dep_count = cur.u16();
    r.dep_begin = cur.u32();
    if (std::uint64_t{r.dep_begin} + r.dep_count > dep_total) {
      throw std::runtime_error(
          "trace binary: dependency slice out of range on record " +
          std::to_string(i));
    }
    writer_layout = writer_layout && r.dep_begin == edges;
    edges += r.dep_count;
  }
  if (edges > dep_total) {
    // Overlapping slices may share entries but not name more than the
    // table holds, so the edges allocated below are bounded by bytes the
    // file was checked to contain.
    throw std::runtime_error(
        "trace binary: slices name " + std::to_string(edges) +
        " dependency entries but the table holds " +
        std::to_string(dep_total));
  }
  if (edges > detail::kMaxEdges) {  // only a table above 32 GiB gets here
    throw std::runtime_error("trace binary: " + std::to_string(edges) +
                             " dependency edges, more than 2^32 - 1");
  }

  // The dependency table streams through the window once, in file order.
  // The writer's layout already is in file order and already where the
  // in-memory table wants it; any other layout (slices reordered, spaced
  // out or overlapping) is sorted by file offset, and each slice moves to
  // the back-to-back place its record takes in memory.
  std::vector<std::uint64_t> slices;  // (file offset << 32 | record)
  if (!writer_layout) {
    slices.resize(n);
    std::uint32_t begin = 0;
    for (std::size_t i = 0; i < n; ++i) {
      TraceRecord& r = trace.records[i];
      slices[i] = std::uint64_t{r.dep_begin} << 32 | i;
      r.dep_begin = begin;
      begin += r.dep_count;
    }
    std::sort(slices.begin(), slices.end());
  }
  Resolver deps(trace, static_cast<std::size_t>(edges));
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t i =
        writer_layout ? s : static_cast<std::uint32_t>(slices[s]);
    const TraceRecord& r = trace.records[i];
    if (r.dep_count == 0) continue;
    in.seek(deps_base +
            8 * (writer_layout ? std::uint64_t{r.dep_begin} : slices[s] >> 32));
    for (std::size_t k = 0; k < r.dep_count;) {
      const std::size_t run = std::min<std::size_t>(r.dep_count - k,
                                                    kWindowBytes / 8);
      ByteCursor cur(in.take(8 * run));
      for (const std::size_t stop = k + run; k < stop; ++k) {
        deps.set(r.dep_begin + k, cur.u64());
      }
    }
  }
  slices = {};
  deps.finish();
  return trace;
}

namespace {
bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

void TraceWriter::write_file(const std::string& path, const Trace& trace) {
  trace.validate();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot open for write: " + path);
  if (has_suffix(path, kBinaryExtension)) {
    write_binary_unchecked(out, trace);
  } else {
    write_text_unchecked(out, trace);
  }
  if (!out) throw std::runtime_error("trace: write failed: " + path);
}

Trace TraceReader::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open: " + path);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  in.clear();
  in.seekg(0);
  try {
    return (in.gcount() == sizeof(magic) &&
            std::memcmp(magic, kMagic, sizeof(kMagic)) == 0)
               ? read_binary(in)
               : read_text(in);
  } catch (const std::exception& e) {
    // Name the file: stream overloads can't know it, but every CLI-facing
    // failure should say which artifact is broken.
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace drlnoc::trace
