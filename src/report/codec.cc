#include "report/codec.hh"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "support/logging.hh"

namespace capo::report {

std::string
encodeDouble(double value)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

bool
decodeDouble(const std::string &text, double &value)
{
    if (text.size() != 16)
        return false;
    std::uint64_t bits = 0;
    for (char c : text) {
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<std::uint64_t>(c - 'A') + 10;
        else
            return false;
        bits = (bits << 4) | digit;
    }
    std::memcpy(&value, &bits, sizeof value);
    return true;
}

namespace {

template <typename T>
bool
decodeWhole(const std::string &text, T &value)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    return ec == std::errc{} && ptr == end;
}

} // namespace

bool
decodeUint(const std::string &text, std::uint64_t &value)
{
    return decodeWhole(text, value);
}

bool
decodeInt(const std::string &text, int &value)
{
    return decodeWhole(text, value);
}

bool
decodeBool(const std::string &text, bool &value)
{
    if (text != "0" && text != "1")
        return false;
    value = text == "1";
    return true;
}

bool
fieldIsClean(const std::string &field)
{
    return field.find_first_of("\t\n") == std::string::npos;
}

std::string
encodeRecord(const std::vector<std::string> &fields)
{
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        CAPO_ASSERT(fieldIsClean(fields[i]),
                    "record field contains a separator");
        if (i > 0)
            line += '\t';
        line += fields[i];
    }
    line += '\n';
    return line;
}

std::vector<std::string>
decodeRecord(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    for (;;) {
        const auto tab = line.find('\t', begin);
        if (tab == std::string::npos) {
            out.push_back(line.substr(begin));
            return out;
        }
        out.push_back(line.substr(begin, tab - begin));
        begin = tab + 1;
    }
}

} // namespace capo::report
