/**
 * @file
 * Minimal streaming JSON writer and recursive-descent reader.
 *
 * remora emits JSON in three places — Chrome trace files, metric dumps,
 * and machine-readable bench reports — and all three need exactly the
 * same few primitives: objects, arrays, escaped strings, and numbers
 * that round-trip. JsonWriter keeps a context stack so commas and
 * closing brackets are placed automatically; misuse (closing an array
 * as an object, keys outside objects) asserts.
 *
 * JsonValue is the matching reader: a small DOM parsed by
 * JsonValue::parse(), grown for the bench_diff regression gate (which
 * must read the reports the benches wrote). It handles all of standard
 * JSON; parse errors come back as a Status naming the byte offset.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace remora::util {

/** Escape @p s for inclusion inside a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

/** Context-tracking JSON emitter. */
class JsonWriter
{
  public:
    /** Begin an object; as a value in an array/after key() in an object. */
    JsonWriter &beginObject();

    /** Begin an array. */
    JsonWriter &beginArray();

    /** Close the innermost object. */
    JsonWriter &endObject();

    /** Close the innermost array. */
    JsonWriter &endArray();

    /** Emit a key inside an object; must be followed by one value. */
    JsonWriter &key(std::string_view k);

    /** Emit a string value. */
    JsonWriter &value(std::string_view v);

    /** Emit a string value (avoids const char* -> bool selection). */
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }

    /** Emit a double value (NaN/inf become null). */
    JsonWriter &value(double v);

    /** Emit an unsigned integer value. */
    JsonWriter &value(uint64_t v);

    /** Emit a signed integer value. */
    JsonWriter &value(int64_t v);

    /** Emit a boolean value. */
    JsonWriter &value(bool v);

    /** Shorthand: key + string value. */
    JsonWriter &
    kv(std::string_view k, std::string_view v)
    {
        return key(k).value(v);
    }

    /** Shorthand: key + string value (avoids const char* -> bool selection). */
    JsonWriter &
    kv(std::string_view k, const char *v)
    {
        return key(k).value(std::string_view(v));
    }

    /** Shorthand: key + double value. */
    JsonWriter &kv(std::string_view k, double v) { return key(k).value(v); }

    /** Shorthand: key + unsigned value. */
    JsonWriter &kv(std::string_view k, uint64_t v) { return key(k).value(v); }

    /** Shorthand: key + signed value. */
    JsonWriter &kv(std::string_view k, int64_t v) { return key(k).value(v); }

    /** Shorthand: key + boolean value. */
    JsonWriter &kv(std::string_view k, bool v) { return key(k).value(v); }

    /**
     * The completed document. All opened scopes must have been closed.
     */
    const std::string &str() const;

  private:
    enum class Scope : uint8_t
    {
        kObject,
        kArray,
    };

    /** Emit separators/validation before a value lands in this scope. */
    void preValue();

    std::string out_;
    std::vector<Scope> stack_;
    /** A value has already been emitted in the current scope. */
    std::vector<bool> sawValue_;
    /** key() ran and its value has not arrived yet. */
    bool pendingKey_ = false;
};

/** A parsed JSON document node. */
class JsonValue
{
  public:
    /** JSON's seven value kinds, numbers collapsed to double. */
    enum class Type : uint8_t
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    /**
     * Parse @p text as one JSON document (trailing garbage is an
     * error). Failures name the byte offset.
     */
    static Result<JsonValue> parse(std::string_view text);

    JsonValue() = default;

    bool isNull() const { return type_ == Type::kNull; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    /** The boolean payload (false unless isBool()). */
    bool asBool() const { return bool_; }

    /** The numeric payload (0 unless isNumber()). */
    double asNumber() const { return number_; }

    /** The string payload (empty unless isString()). */
    const std::string &asString() const { return string_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in document order (empty unless isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Array/object element count. */
    size_t size() const { return isObject() ? members_.size() : items_.size(); }

    /**
     * Member @p key of an object, or nullptr when absent (or when this
     * is not an object). First match wins on duplicate keys.
     */
    const JsonValue *find(std::string_view key) const;

  private:
    friend class JsonParser;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace remora::util
