/**
 * @file
 * Minimal streaming JSON writer shared by every JSON emitter in the
 * repo (core/report_format, RunResult::statsJson, and the obs exports).
 *
 * Before this existed each emitter hand-rolled its own escaping and
 * comma placement; JsonWriter centralizes both. It is a straight-line
 * builder — no DOM, no allocation beyond the output string — and the
 * caller chooses key order, so emitters keep byte-stable schemas.
 */

#ifndef RID_OBS_JSON_WRITER_H
#define RID_OBS_JSON_WRITER_H

#include <cstdint>
#include <string>
#include <vector>

namespace rid::obs {

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &text);

/**
 * Render a double as the shortest text that parses back to the same
 * value (std::to_chars), so JSON carries what the Prometheus text's
 * `%.17g` does. The stats this repo emits never contain inf/nan;
 * callers must not pass them.
 */
std::string jsonDouble(double v);

/** jsonDouble with a fixed number of fractional digits (trace ts/dur). */
std::string jsonDoubleFixed(double v, int digits);

class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member key; must be followed by a value or container. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(bool v);
    JsonWriter &value(int v) { return value(static_cast<int64_t>(v)); }
    JsonWriter &value(int64_t v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(double v);

    /** Splice pre-rendered JSON (e.g. a nested document) as one value. */
    JsonWriter &raw(const std::string &json);

    const std::string &str() const { return out_; }

  private:
    /** Emit the separating comma if a value precedes at this nesting. */
    void sep();

    std::string out_;
    /** Per-nesting-level flag: has this container already got a value? */
    std::vector<bool> has_value_;
    bool after_key_ = false;
};

} // namespace rid::obs

#endif // RID_OBS_JSON_WRITER_H
