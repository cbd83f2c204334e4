// Versioned trace serialisation: a human-readable text format (`.drltrc`)
// and a packed little-endian binary (`.drltrb`) with a fixed 32-byte header
// and fixed 32-byte record stride, so readers can compute offsets (or mmap)
// without parsing.
//
// Text format (lines; '#' starts a comment):
//   drltrc 1
//   nodes 16
//   default_length 4
//   records 3            # optional, preallocation hint
//   1 0 5 0 4            # id src dst time flits [dep,dep,...]
//   2 1 5 0 4
//   3 5 0 12.5 8 1,2
// Times are written with shortest-round-trip precision, so text round-trips
// are bit-exact.
//
// Binary layout (all little-endian):
//   header  : magic "DRLT" (4) | version u16 | flags u16 | nodes u32 |
//             default_length u32 | record_count u64 | dep_count u64
//   records : record_count x { id u64 | src i32 | dst i32 | time f64-bits |
//             length u16 | dep_count u16 | dep_offset u32 }
//   deps    : dep_count x u64 (record i's slice starts at its dep_offset)
// The in-memory Trace has the same record layout (static_assert'ed 32
// bytes) and CSR slices, but its table holds 32-bit record positions: the
// reader maps ids to positions through one id index held only while it
// decodes, and the writer maps them back, writing through a bounded buffer.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace drlnoc::trace {

inline constexpr int kTraceFormatVersion = 1;
inline constexpr char kTextExtension[] = ".drltrc";
inline constexpr char kBinaryExtension[] = ".drltrb";

/// Every writer validates the trace first (std::invalid_argument), so
/// nothing is written for a trace validate() refuses.
class TraceWriter {
 public:
  static void write_text(std::ostream& os, const Trace& trace);
  /// Streams through one 64 KiB buffer, never the whole file.
  static void write_binary(std::ostream& os, const Trace& trace);
  /// Writes by extension: `.drltrb` selects binary, anything else text.
  /// Throws std::runtime_error on I/O failure.
  static void write_file(const std::string& path, const Trace& trace);
};

/// Every reader returns a validated trace: a malformed stream throws
/// std::runtime_error, a well-formed one that breaks a Trace::validate rule
/// std::invalid_argument with validate's message (an unknown dependency id
/// reads "dependency <id> not declared earlier in the trace").
class TraceReader {
 public:
  static Trace read_text(std::istream& is);
  static Trace read_binary(std::istream& is);
  /// Sniffs the magic bytes to pick the decoder. Throws std::runtime_error,
  /// naming the file, on unreadable, corrupt or invalid files.
  static Trace read_file(const std::string& path);
};

}  // namespace drlnoc::trace
