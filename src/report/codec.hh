/**
 * @file
 * The result codec: the one encoding shared by every typed result
 * path in capo — `ResultTable` row records, the checkpoint journal,
 * and any other layer that must round-trip experiment values without
 * loss.
 *
 * Two properties matter and both are load-bearing:
 *
 *  1. *Exactness.* Doubles are encoded as the 16 hex digits of their
 *     IEEE-754 bit pattern, so a value restored from a record is
 *     *bit*-identical to the value that produced it — never
 *     printf-close. This is what lets a resumed sweep emit
 *     byte-identical CSVs and the j1-vs-j8 determinism suite stay
 *     bitwise through the report layer.
 *
 *  2. *Framing.* A record is a flat list of tab- and newline-free
 *     fields joined by tabs and terminated by a newline. One record
 *     per line means a torn tail (a crash mid-append) is detectable
 *     by the missing newline and droppable without corrupting
 *     neighbours — the checkpoint journal's crash-safety contract.
 */

#ifndef CAPO_REPORT_CODEC_HH
#define CAPO_REPORT_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace capo::report {

/** @{ Exact double round-tripping: 16 hex digits of the IEEE-754 bit
 *  pattern, immune to decimal formatting loss. */
std::string encodeDouble(double value);
bool decodeDouble(const std::string &text, double &value);
/** @} */

/** @{ Strict integer and flag decoding: the whole field must be a
 *  decimal number in range (no whitespace, no trailing text; a sign
 *  only for signed values), a flag exactly "0" or "1". Anything else
 *  fails, so a mutated record misses instead of decoding wrong. */
bool decodeUint(const std::string &text, std::uint64_t &value);
bool decodeInt(const std::string &text, int &value);
bool decodeBool(const std::string &text, bool &value);
/** @} */

/** Is @p field legal in a record (no tab, no newline)? */
bool fieldIsClean(const std::string &field);

/**
 * Join @p fields into one newline-terminated record line. Asserts
 * every field is clean (reports and journals never contain user-
 * controlled text that could carry separators; a violation is a bug,
 * not an input error).
 */
std::string encodeRecord(const std::vector<std::string> &fields);

/**
 * Split one record line (without its trailing newline) back into
 * fields. The inverse of encodeRecord for clean fields; an empty
 * line decodes to one empty field.
 */
std::vector<std::string> decodeRecord(const std::string &line);

} // namespace capo::report

#endif // CAPO_REPORT_CODEC_HH
