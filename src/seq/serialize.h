// Binary database serialization — the "database preprocessing step" of
// CUDASW++: convert a FASTA database once (parse, encode, optionally sort
// by length) and load the compact binary image at search time.
//
// Format (little-endian):
//   magic "CUSWDB1\0" | u64 sequence count | u64 total residues
//   per sequence: u32 name length | name bytes | u64 residue count | codes
#pragma once

#include <iosfwd>
#include <string>

#include "seq/database.h"

namespace cusw::seq {

void write_db(std::ostream& out, const SequenceDB& db);
/// Load an image from a seekable stream; throws std::invalid_argument when
/// the stream cannot seek, the image is truncated, a length runs past its
/// end, or a residue code is outside the amino-acid alphabet.
SequenceDB read_db(std::istream& in);

void write_db_file(const std::string& path, const SequenceDB& db);
SequenceDB read_db_file(const std::string& path);

}  // namespace cusw::seq
