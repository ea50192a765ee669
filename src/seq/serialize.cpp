#include "seq/serialize.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>

#include "seq/alphabet.h"
#include "simd/vec.h"
#include "util/check.h"

namespace cusw::seq {

namespace {

constexpr std::array<char, 8> kMagic = {'C', 'U', 'S', 'W', 'D', 'B', '1', 0};

template <class T>
void put(std::ostream& out, T v) {
  // Serialise integers explicitly little-endian so images are portable.
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    out.put(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * b)) & 0xFF));
  }
}

template <class T>
T get(std::istream& in) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    const int c = in.get();
    CUSW_REQUIRE(c != std::char_traits<char>::eof(), "truncated database image");
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(c)) << (8 * b);
  }
  return static_cast<T>(v);
}

/// Bytes from the read position to the end of the stream.
std::uint64_t bytes_left(std::istream& in) {
  const auto here = in.tellg();
  CUSW_REQUIRE(here >= 0, "database image stream cannot seek");
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

/// Largest code in `codes` (0 when empty). A 16-lane max reduction, so
/// validating an image costs a small fraction of reading it.
Code max_code(const std::vector<Code>& codes) {
  using V = simd::Vec<Code, 16>;
  V acc = V::zero();
  std::size_t i = 0;
  for (; i + V::lanes <= codes.size(); i += V::lanes) {
    acc = max(acc, V::load(codes.data() + i));
  }
  Code m = horizontal_max(acc);
  for (; i < codes.size(); ++i) m = std::max(m, codes[i]);
  return m;
}

}  // namespace

void write_db(std::ostream& out, const SequenceDB& db) {
  out.write(kMagic.data(), kMagic.size());
  put<std::uint64_t>(out, db.size());
  put<std::uint64_t>(out, db.total_residues());
  for (const auto& s : db.sequences()) {
    put<std::uint32_t>(out, checked_narrow<std::uint32_t>(s.name.size()));
    out.write(s.name.data(), static_cast<std::streamsize>(s.name.size()));
    put<std::uint64_t>(out, s.residues.size());
    out.write(reinterpret_cast<const char*>(s.residues.data()),
              static_cast<std::streamsize>(s.residues.size()));
  }
  CUSW_REQUIRE(out.good(), "database serialisation failed");
}

// Every length field is checked against the bytes actually left before
// anything that size is allocated.
SequenceDB read_db(std::istream& in) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  CUSW_REQUIRE(in.gcount() == static_cast<std::streamsize>(magic.size()) &&
                   magic == kMagic,
               "not a CUSWDB1 database image");
  const auto count = get<std::uint64_t>(in);
  const auto total = get<std::uint64_t>(in);
  std::uint64_t left = bytes_left(in);
  const auto claim = [&left](std::uint64_t bytes) {
    CUSW_REQUIRE(bytes <= left, "database image field runs past its end");
    left -= bytes;
  };
  const std::size_t alphabet = Alphabet::amino_acid().size();
  SequenceDB db;
  std::uint64_t residues = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    claim(sizeof(std::uint32_t));
    const auto name_len = get<std::uint32_t>(in);
    claim(name_len);
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    claim(sizeof(std::uint64_t));
    const auto res_len = get<std::uint64_t>(in);
    claim(res_len);
    std::vector<Code> codes(res_len);
    in.read(reinterpret_cast<char*>(codes.data()),
            static_cast<std::streamsize>(res_len));
    CUSW_REQUIRE(in.good(), "truncated database image");
    CUSW_REQUIRE(max_code(codes) < alphabet,
                 "database image holds a residue code outside the alphabet");
    residues += res_len;
    db.add(Sequence(std::move(name), std::move(codes)));
  }
  CUSW_REQUIRE(residues == total, "database image residue count mismatch");
  return db;
}

void write_db_file(const std::string& path, const SequenceDB& db) {
  std::ofstream out(path, std::ios::binary);
  CUSW_REQUIRE(out.good(), "cannot open database image for writing: " + path);
  write_db(out, db);
}

SequenceDB read_db_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CUSW_REQUIRE(in.good(), "cannot open database image: " + path);
  return read_db(in);
}

}  // namespace cusw::seq
