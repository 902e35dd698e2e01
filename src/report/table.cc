#include "report/table.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "report/codec.hh"
#include "support/logging.hh"
#include "support/strfmt.hh"

namespace capo::report {

namespace {

std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

bool
parseInt(const std::string &text, std::int64_t &value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    value = std::strtoll(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

bool
parseUint(const std::string &text, std::uint64_t &value)
{
    if (text.empty() || text[0] == '-')
        return false;
    char *end = nullptr;
    value = std::strtoull(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** RFC-4180 quoting: a field holding a comma, quote or line break is
 *  wrapped in quotes, with embedded quotes doubled. */
std::string
csvEscape(const std::string &text)
{
    if (text.find_first_of(",\"\n\r") == std::string::npos)
        return text;
    std::string quoted = "\"";
    for (char c : text) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace

const char *
typeName(Type type)
{
    switch (type) {
      case Type::String:
        return "string";
      case Type::Double:
        return "double";
      case Type::Int:
        return "int";
      case Type::Uint:
        return "uint";
      case Type::Bool:
        return "bool";
    }
    return "?";
}

Value
Value::str(std::string v)
{
    Value value;
    value.type_ = Type::String;
    value.s_ = std::move(v);
    return value;
}

Value
Value::dbl(double v)
{
    Value value;
    value.type_ = Type::Double;
    value.d_ = v;
    return value;
}

Value
Value::integer(std::int64_t v)
{
    Value value;
    value.type_ = Type::Int;
    value.i_ = v;
    return value;
}

Value
Value::uinteger(std::uint64_t v)
{
    Value value;
    value.type_ = Type::Uint;
    value.u_ = v;
    return value;
}

Value
Value::boolean(bool v)
{
    Value value;
    value.type_ = Type::Bool;
    value.b_ = v;
    return value;
}

std::string
Value::display() const
{
    switch (type_) {
      case Type::String:
        return s_;
      case Type::Double:
        return formatDouble(d_);
      case Type::Int:
        return std::to_string(i_);
      case Type::Uint:
        return std::to_string(u_);
      case Type::Bool:
        return b_ ? "1" : "0";
    }
    return "";
}

std::string
Value::encode() const
{
    // Doubles are the one type decimal text can corrupt; everything
    // else already round-trips through its display form.
    if (type_ == Type::Double)
        return encodeDouble(d_);
    return display();
}

bool
Value::decode(Type type, const std::string &field, Value &value)
{
    switch (type) {
      case Type::String:
        value = Value::str(field);
        return true;
      case Type::Double: {
        double d;
        if (!decodeDouble(field, d))
            return false;
        value = Value::dbl(d);
        return true;
      }
      case Type::Int: {
        std::int64_t i;
        if (!parseInt(field, i))
            return false;
        value = Value::integer(i);
        return true;
      }
      case Type::Uint: {
        std::uint64_t u;
        if (!parseUint(field, u))
            return false;
        value = Value::uinteger(u);
        return true;
      }
      case Type::Bool:
        if (field == "1")
            value = Value::boolean(true);
        else if (field == "0")
            value = Value::boolean(false);
        else
            return false;
        return true;
    }
    return false;
}

bool
Value::identical(const Value &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::String:
        return s_ == other.s_;
      case Type::Double:
        // Bit-pattern comparison: distinguishes -0.0 from 0.0 and
        // treats equal-bit NaNs as equal, exactly like the codec.
        return encodeDouble(d_) == encodeDouble(other.d_);
      case Type::Int:
        return i_ == other.i_;
      case Type::Uint:
        return u_ == other.u_;
      case Type::Bool:
        return b_ == other.b_;
    }
    return false;
}

Schema::Schema(std::initializer_list<Column> columns)
    : columns_(columns)
{
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns))
{
}

std::size_t
Schema::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i].name == name)
            return i;
    }
    return static_cast<std::size_t>(-1);
}

bool
Schema::operator==(const Schema &other) const
{
    if (columns_.size() != other.columns_.size())
        return false;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i].name != other.columns_[i].name ||
            columns_[i].type != other.columns_[i].type)
            return false;
    }
    return true;
}

ResultTable::ResultTable(Schema schema) : schema_(std::move(schema))
{
}

void
ResultTable::addRow(std::vector<Value> row)
{
    CAPO_ASSERT(row.size() == schema_.size(),
                "result row arity does not match the schema");
    for (std::size_t i = 0; i < row.size(); ++i) {
        CAPO_ASSERT(row[i].type() == schema_.columns()[i].type,
                    "result cell type does not match the schema");
    }
    rows_.push_back(std::move(row));
}

std::size_t
ResultTable::writeCsv(std::ostream &out) const
{
    const auto &columns = schema_.columns();
    for (std::size_t c = 0; c < columns.size(); ++c)
        out << (c > 0 ? "," : "") << csvEscape(columns[c].name);
    out << '\n';
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out << (c > 0 ? "," : "") << csvEscape(row[c].display());
        out << '\n';
    }
    return rows_.size();
}

std::size_t
ResultTable::writeJsonl(std::ostream &out) const
{
    for (const auto &row : rows_) {
        out << '{';
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0)
                out << ',';
            out << '"' << jsonEscape(schema_.columns()[c].name)
                << "\":";
            switch (row[c].type()) {
              case Type::String:
                out << '"' << jsonEscape(row[c].asString()) << '"';
                break;
              case Type::Bool:
                out << (row[c].asBool() ? "true" : "false");
                break;
              default:
                out << row[c].display();
            }
        }
        out << "}\n";
    }
    return rows_.size();
}

std::size_t
ResultTable::renderAscii(std::ostream &out) const
{
    // Numeric-presentation text ("1.09", "(3/22)", "6.00x") and the
    // placeholders that stand in numeric columns ("-", "DNF", "?")
    // right-align like the numbers they format; identifiers and prose
    // left-align. Lets presentation tables with pre-formatted string
    // cells render like typed numeric columns.
    const auto numeric_like = [](const std::string &cell) {
        if (cell == "-" || cell == "DNF" || cell == "?")
            return true;
        bool digit = false;
        for (const char c : cell) {
            if (c >= '0' && c <= '9') {
                digit = true;
                continue;
            }
            if (std::string_view("+-.%()x/eE,").find(c) ==
                std::string_view::npos)
                return false;
        }
        return digit;
    };

    // Line 0 is the header: it counts toward widths, not alignment.
    const std::size_t ncols = schema_.size();
    std::vector<std::vector<std::string>> lines(1);
    for (const auto &column : schema_.columns())
        lines[0].push_back(column.name);
    for (const auto &row : rows_) {
        auto &line = lines.emplace_back();
        for (const auto &value : row)
            line.push_back(value.display());
    }

    std::vector<std::size_t> widths(ncols);
    std::vector<bool> right(ncols);
    std::size_t total = 0;
    for (std::size_t i = 0; i < ncols; ++i) {
        const bool is_string = schema_.columns()[i].type == Type::String;
        right[i] = !is_string || !rows_.empty();
        for (std::size_t r = 0; r < lines.size(); ++r) {
            const std::string &cell = lines[r][i];
            widths[i] = std::max(widths[i], cell.size());
            if (r > 0 && is_string && !cell.empty() && !numeric_like(cell))
                right[i] = false;
        }
        total += widths[i] + (i ? 2 : 0);
    }

    // Two-space gutters; trailing spaces trimmed so output is
    // diff-friendly (a blank row prints as an empty group gap).
    for (std::size_t r = 0; r < lines.size(); ++r) {
        std::string text;
        for (std::size_t i = 0; i < ncols; ++i) {
            if (i)
                text += "  ";
            text += right[i] ? support::padLeft(lines[r][i], widths[i])
                             : support::padRight(lines[r][i], widths[i]);
        }
        while (!text.empty() && text.back() == ' ')
            text.pop_back();
        out << text << '\n';
        if (r == 0)
            out << std::string(total, '-') << '\n';
    }
    return rows_.size();
}

std::vector<std::string>
ResultTable::encodeRow(std::size_t index) const
{
    CAPO_ASSERT(index < rows_.size(), "result row index out of range");
    std::vector<std::string> fields;
    fields.reserve(schema_.size());
    for (const auto &value : rows_[index])
        fields.push_back(value.encode());
    return fields;
}

bool
ResultTable::decodeRow(const std::vector<std::string> &fields,
                       std::vector<Value> &row) const
{
    if (fields.size() != schema_.size())
        return false;
    std::vector<Value> decoded(fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (!Value::decode(schema_.columns()[i].type, fields[i],
                           decoded[i]))
            return false;
    }
    row = std::move(decoded);
    return true;
}

bool
ResultTable::addDecodedRow(const std::vector<std::string> &fields)
{
    std::vector<Value> row;
    if (!decodeRow(fields, row))
        return false;
    rows_.push_back(std::move(row));
    return true;
}

bool
ResultTable::identical(const ResultTable &other) const
{
    if (!(schema_ == other.schema_) ||
        rows_.size() != other.rows_.size())
        return false;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        for (std::size_t c = 0; c < rows_[r].size(); ++c) {
            if (!rows_[r][c].identical(other.rows_[r][c]))
                return false;
        }
    }
    return true;
}

ResultTable &
ResultStore::table(const std::string &name, const Schema &schema)
{
    for (auto &entry : entries_) {
        if (entry.name == name) {
            CAPO_ASSERT(entry.table->schema() == schema,
                        "result table reopened with a different schema");
            return *entry.table;
        }
    }
    entries_.push_back(
        {name, std::make_unique<ResultTable>(schema)});
    return *entries_.back().table;
}

const ResultTable *
ResultStore::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name)
            return entry.table.get();
    }
    return nullptr;
}

std::vector<std::string>
ResultStore::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.name);
    return out;
}

} // namespace capo::report
