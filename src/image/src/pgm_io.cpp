#include "histcc/image/pgm_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "histcc/util/require.hpp"

namespace histcc::img {
namespace {

/// Skip whitespace and '#' comment lines between PGM header tokens.
void skip_pgm_separators(std::istream& in) {
  for (;;) {
    const int c = in.peek();
    if (c == '#') {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    } else if (std::isspace(c)) {
      in.get();
    } else {
      return;
    }
  }
}

std::uint32_t read_header_value(std::istream& in) {
  skip_pgm_separators(in);
  std::uint32_t value = 0;
  in >> value;
  HISTCC_REQUIRE(static_cast<bool>(in), "malformed PGM header");
  return value;
}

/// Pixels read per step.  The buffer grows only as pixels arrive, so a
/// header that promises more than the stream holds costs a buffer of at
/// most about twice the pixels actually read (or one step, at the start).
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

}  // namespace

void write_pgm(std::ostream& out, const GreyImage& image) {
  HISTCC_REQUIRE(!image.empty(), "cannot write an empty image");
  out << "P5\n" << image.width() << ' ' << image.height() << "\n255\n";
  out.write(reinterpret_cast<const char*>(image.pixels().data()),
            static_cast<std::streamsize>(image.size()));
}

void write_pgm_file(const std::string& path, const GreyImage& image) {
  std::ofstream out(path, std::ios::binary);
  HISTCC_REQUIRE(out.is_open(), "cannot open file for writing: " + path);
  write_pgm(out, image);
}

GreyImage read_pgm(std::istream& in) {
  char magic[2] = {};
  in.read(magic, 2);
  HISTCC_REQUIRE(static_cast<bool>(in) && magic[0] == 'P' &&
                     (magic[1] == '5' || magic[1] == '2'),
                 "not a P2/P5 PGM stream");
  const bool binary = magic[1] == '5';
  const std::uint32_t width = read_header_value(in);
  const std::uint32_t height = read_header_value(in);
  const std::uint32_t maxval = read_header_value(in);
  HISTCC_REQUIRE(width > 0 && height > 0, "degenerate PGM dimensions");
  // Bound dimensions before allocating: a corrupt header must not turn
  // into a multi-exabyte allocation.
  HISTCC_REQUIRE(width <= 65536 && height <= 65536,
                 "PGM dimensions exceed the supported 65536 x 65536");
  HISTCC_REQUIRE(maxval > 0 && maxval <= 255, "only 8-bit PGM is supported");

  const std::size_t total = std::size_t{height} * width;
  std::vector<std::uint8_t> pixels;
  if (binary) in.get();  // single whitespace after maxval
  while (pixels.size() < total) {
    const std::size_t step = std::min(kReadChunk, total - pixels.size());
    // Grow geometrically, only when the step does not fit, and never past
    // `total`: a complete read ends with capacity == total and the image
    // adopts the buffer as is.
    if (pixels.capacity() - pixels.size() < step) {
      pixels.reserve(std::min(
          total, std::max(pixels.size() + step, 2 * pixels.capacity())));
    }
    if (binary) {
      const std::size_t done = pixels.size();
      pixels.resize(done + step);
      in.read(reinterpret_cast<char*>(pixels.data() + done),
              static_cast<std::streamsize>(step));
      HISTCC_REQUIRE(static_cast<bool>(in), "truncated PGM pixel data");
    } else {
      for (std::size_t i = 0; i < step; ++i) {
        std::uint32_t value = 0;
        in >> value;
        HISTCC_REQUIRE(static_cast<bool>(in) && value <= maxval,
                       "malformed P2 pixel data");
        pixels.push_back(static_cast<std::uint8_t>(value));
      }
    }
  }
  return GreyImage(height, width, std::move(pixels));
}

GreyImage read_pgm_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HISTCC_REQUIRE(in.is_open(), "cannot open file for reading: " + path);
  return read_pgm(in);
}

void write_label_ppm(std::ostream& out, const LabelImage& labels) {
  HISTCC_REQUIRE(!labels.empty(), "cannot write an empty labeling");
  out << "P6\n" << labels.width() << ' ' << labels.height() << "\n255\n";
  for (const auto label : labels.pixels()) {
    unsigned char rgb[3] = {0, 0, 0};
    if (label != 0) {
      // splitmix-style hash for a stable, well-spread colour per label.
      std::uint64_t z = label + 0x9E3779B97F4A7C15ULL;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      rgb[0] = static_cast<unsigned char>(64 + (z & 0xBF));
      rgb[1] = static_cast<unsigned char>(64 + ((z >> 8) & 0xBF));
      rgb[2] = static_cast<unsigned char>(64 + ((z >> 16) & 0xBF));
    }
    out.write(reinterpret_cast<const char*>(rgb), 3);
  }
}

void write_label_ppm_file(const std::string& path, const LabelImage& labels) {
  std::ofstream out(path, std::ios::binary);
  HISTCC_REQUIRE(out.is_open(), "cannot open file for writing: " + path);
  write_label_ppm(out, labels);
}

}  // namespace histcc::img
