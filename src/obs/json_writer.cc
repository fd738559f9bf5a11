#include "obs/json_writer.h"

#include <charconv>
#include <cstdio>

namespace rid::obs {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonDouble(double v)
{
    // Shortest text that reads back as the same double (0.1 is "0.1").
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonDoubleFixed(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

void
JsonWriter::sep()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!has_value_.empty()) {
        if (has_value_.back())
            out_ += ",";
        has_value_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    sep();
    out_ += "{";
    has_value_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    has_value_.pop_back();
    out_ += "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    sep();
    out_ += "[";
    has_value_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    has_value_.pop_back();
    out_ += "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    sep();
    out_ += "\"";
    out_ += jsonEscape(k);
    out_ += "\":";
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    sep();
    out_ += "\"";
    out_ += jsonEscape(v);
    out_ += "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    sep();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    sep();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    sep();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    sep();
    out_ += jsonDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    sep();
    out_ += json;
    return *this;
}

} // namespace rid::obs
