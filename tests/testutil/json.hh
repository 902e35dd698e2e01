/**
 * @file
 * The repository's one JSON parser, deliberately small and test-only:
 * capo writes JSON (Chrome traces, JSON-lines tables) but never reads
 * it back, so only the test suites parse it. It is just enough for the
 * trace exporter's own output, so tests validate real syntax rather
 * than substrings. Strict: rejects trailing garbage, unknown escapes
 * and malformed numbers.
 */

#ifndef CAPO_TESTS_TESTUTIL_JSON_HH
#define CAPO_TESTS_TESTUTIL_JSON_HH

#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace capo::testutil {

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue null;
        const auto it = fields.find(key);
        return it == fields.end() ? null : it->second;
    }
};

class JsonParser
{
  public:
    /** Copies @p text: callers may pass temporaries (e.g. out.str()). */
    explicit JsonParser(std::string text) : text_(std::move(text)) {}

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        return pos_ == text_.size();  // no trailing garbage
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.text);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        ++pos_;  // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.fields.emplace(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        ++pos_;  // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.items.push_back(std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"':
                  case '\\':
                  case '/':
                    out += esc;
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return false;
                    const auto code = std::stoi(
                        text_.substr(pos_, 4), nullptr, 16);
                    pos_ += 4;
                    out += static_cast<char>(code);
                    break;
                  }
                  default:
                    return false;
                }
                continue;
            }
            out += c;
        }
        return false;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return false;
        try {
            out.number = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return false;
        }
        out.type = JsonValue::Type::Number;
        return true;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

} // namespace capo::testutil

#endif // CAPO_TESTS_TESTUTIL_JSON_HH
