// The seeded mutation corpus behind the hostile-input tests: a valid file
// cut at chosen offsets, then single bit flips and whole-byte overwrites at
// seeded positions; text formats add duplicated and swapped lines. Each
// parser test feeds every input to its reader and requires a clean load or
// a std::exception, never a crash or an unbounded allocation (the sanitizer
// build runs them too).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace drlnoc {

/// `bytes` cut at every offset in `cuts`, then 300 single-byte mutations:
/// two bit flips for every overwrite with a random byte.
inline std::vector<std::string> hostile_corpus(
    const std::string& bytes, const std::vector<std::size_t>& cuts,
    std::uint64_t seed) {
  std::vector<std::string> corpus;
  for (std::size_t cut : cuts) corpus.push_back(bytes.substr(0, cut));
  util::Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    std::string m = bytes;
    char& at = m[static_cast<std::size_t>(rng.below(m.size()))];
    if (i % 3 == 2) {
      at = static_cast<char>(rng.below(256));
    } else {
      at = static_cast<char>(at ^ (1 << rng.below(8)));
    }
    corpus.push_back(std::move(m));
  }
  return corpus;
}

/// Offset 0 and the offset after every newline of `text`: a text file cut
/// at each line boundary.
inline std::vector<std::size_t> line_cuts(const std::string& text) {
  std::vector<std::size_t> cuts = {0};
  for (std::size_t c = 0; c < text.size(); ++c) {
    if (text[c] == '\n') cuts.push_back(c + 1);
  }
  return cuts;
}

/// `text` with its lines rearranged: each line doubled in place (a
/// duplicated key or block header), each pair of neighbouring lines swapped,
/// then 50 seeded swaps of two distant lines (numbered blocks out of order).
/// Files of more than 100 lines double and swap 100 seeded lines instead of
/// every one.
inline std::vector<std::string> line_corpus(const std::string& text,
                                            std::uint64_t seed) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = text.find('\n', at);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(at, end - at));
    at = end;
  }
  std::vector<std::string> corpus;
  if (lines.size() < 2) return corpus;
  const auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l;
    return out;
  };
  util::Rng rng(seed);
  const std::size_t n = lines.size();
  const std::size_t picks = n > 100 ? 100 : n;
  for (std::size_t k = 0; k < picks; ++k) {
    const std::size_t i =
        n > 100 ? static_cast<std::size_t>(rng.below(n)) : k;
    std::vector<std::string> doubled = lines;
    doubled.insert(doubled.begin() + static_cast<std::ptrdiff_t>(i),
                   lines[i]);
    corpus.push_back(join(doubled));
    if (i + 1 < n) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[i], swapped[i + 1]);
      corpus.push_back(join(swapped));
    }
  }
  for (int k = 0; k < 50; ++k) {
    std::vector<std::string> swapped = lines;
    std::swap(swapped[static_cast<std::size_t>(rng.below(n))],
              swapped[static_cast<std::size_t>(rng.below(n))]);
    corpus.push_back(join(swapped));
  }
  return corpus;
}

/// The corpus of a text format: hostile_corpus cut at every line boundary,
/// then line_corpus's duplicated and swapped lines.
inline std::vector<std::string> text_corpus(const std::string& text,
                                            std::uint64_t seed) {
  std::vector<std::string> corpus = hostile_corpus(text, line_cuts(text), seed);
  for (std::string& input : line_corpus(text, seed ^ 0x5eedULL)) {
    corpus.push_back(std::move(input));
  }
  return corpus;
}

/// Writes `bytes` to `path` and calls `load(path)`: true when it returns,
/// false when it throws a std::exception whose message names `path` (the
/// text loaders prefix every error with the file). Any other outcome fails
/// the running test.
template <typename Load>
bool loads_or_names_path(const std::string& path, const std::string& bytes,
                         Load&& load) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    load(path);
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    return false;
  }
  return true;
}

}  // namespace drlnoc
