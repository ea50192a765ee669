// Binary database image round-trips and corruption handling.
#include <gtest/gtest.h>

#include <sstream>

#include "seq/alphabet.h"
#include "seq/generate.h"
#include "seq/serialize.h"

namespace cusw::seq {
namespace {

TEST(Serialize, RoundTripsArbitraryDatabase) {
  const auto db = lognormal_db(80, 200, 150, 17);
  std::stringstream buf;
  write_db(buf, db);
  const auto back = read_db(buf);
  ASSERT_EQ(back.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back[i].name, db[i].name);
    EXPECT_EQ(back[i].residues, db[i].residues);
  }
}

TEST(Serialize, RoundTripsEmptyAndEdgeCases) {
  SequenceDB db;
  db.add(Sequence("empty-seq", std::vector<Code>{}));
  db.add(Sequence("", std::vector<Code>{1, 2, 3}));
  db.add(Sequence(std::string(300, 'n'), std::vector<Code>(1, 19)));
  std::stringstream buf;
  write_db(buf, db);
  const auto back = read_db(buf);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(back[0].residues.empty());
  EXPECT_TRUE(back[1].name.empty());
  EXPECT_EQ(back[2].name.size(), 300u);

  SequenceDB none;
  std::stringstream buf2;
  write_db(buf2, none);
  EXPECT_EQ(read_db(buf2).size(), 0u);
}

TEST(Serialize, RejectsBadMagicAndTruncation) {
  std::stringstream bad("not a database image at all");
  EXPECT_THROW(read_db(bad), std::invalid_argument);

  const auto db = uniform_db(5, 10, 20, 1);
  std::stringstream buf;
  write_db(buf, db);
  const std::string full = buf.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_db(truncated), std::invalid_argument);
}

// Offset of the first sequence's name-length field: magic + two u64s.
constexpr std::size_t kFirstRecord = 8 + 8 + 8;

void put_le(std::string& image, std::size_t at, std::uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b) {
    image[at + static_cast<std::size_t>(b)] =
        static_cast<char>((v >> (8 * b)) & 0xFF);
  }
}

std::string image_of(const SequenceDB& db) {
  std::stringstream buf;
  write_db(buf, db);
  return buf.str();
}

SequenceDB load(const std::string& image) {
  std::stringstream in(image);
  return read_db(in);
}

TEST(Serialize, RejectsTruncationInsideEveryField) {
  const std::string full = image_of(uniform_db(3, 10, 20, 4));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW(load(full.substr(0, cut)), std::invalid_argument) << cut;
  }
}

TEST(Serialize, RejectsLengthsBeyondTheImage) {
  SequenceDB db;
  db.add(Sequence("seq", std::vector<Code>{1, 2, 3}));
  const std::string good = image_of(db);

  // A name length of 4 GiB and a residue count of 2^62 in a ~40-byte
  // image: rejected before anything that size is allocated.
  std::string bad_name = good;
  put_le(bad_name, kFirstRecord, 0xFFFFFFFFu, 4);
  EXPECT_THROW(load(bad_name), std::invalid_argument);

  std::string bad_count = good;
  put_le(bad_count, kFirstRecord + 4 + 3, std::uint64_t{1} << 62, 8);
  EXPECT_THROW(load(bad_count), std::invalid_argument);
}

TEST(Serialize, RejectsCodesOutsideTheAlphabet) {
  const auto& aa = Alphabet::amino_acid();
  SequenceDB db;
  db.add(Sequence("a", std::vector<Code>(40, 1)));
  db.add(Sequence("b", std::vector<Code>(5, 2)));
  const std::string good = image_of(db);
  // The last residue of "a": past the 16-lane body, in the scalar tail.
  const std::size_t last_a = kFirstRecord + 4 + 1 + 8 + 39;
  for (const std::size_t at : {kFirstRecord + 4 + 1 + 8, last_a}) {
    for (const std::size_t code : {aa.size(), std::size_t{200}}) {
      std::string bad = good;
      bad[at] = static_cast<char>(code);
      EXPECT_THROW(load(bad), std::invalid_argument) << at << " " << code;
    }
  }
  // The largest valid code loads.
  std::string edge = good;
  edge[last_a] = static_cast<char>(aa.size() - 1);
  EXPECT_EQ(load(edge)[0].residues[39], aa.size() - 1);
}

/// A stream buffer that cannot seek, like a pipe's.
struct PipeBuf : std::stringbuf {
  explicit PipeBuf(const std::string& s) : std::stringbuf(s) {}
  pos_type seekoff(off_type, std::ios_base::seekdir,
                   std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }
};

TEST(Serialize, RejectsNonSeekableStreams) {
  // Lengths cannot be checked against what a pipe holds.
  PipeBuf pipe(image_of(uniform_db(4, 10, 20, 2)));
  std::istream in(&pipe);
  EXPECT_THROW(read_db(in), std::invalid_argument);
}

TEST(Serialize, FileRoundTrip) {
  const auto db = uniform_db(12, 30, 60, 9);
  const std::string path = "/tmp/cusw_test_db.bin";
  write_db_file(path, db);
  const auto back = read_db_file(path);
  ASSERT_EQ(back.size(), db.size());
  EXPECT_EQ(back[7].residues, db[7].residues);
  EXPECT_THROW(read_db_file("/nonexistent/nope.bin"), std::invalid_argument);
}

}  // namespace
}  // namespace cusw::seq
