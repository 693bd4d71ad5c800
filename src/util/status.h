/**
 * @file
 * Lightweight error propagation: Status codes and Result<T>.
 *
 * The remote-memory protocol has a small, closed set of rejection causes
 * (the NAK reasons of the kernel emulation layer), so errors are an enum
 * plus an optional message rather than exceptions; simulated kernel code
 * runs inside event callbacks where exceptions would cross the scheduler.
 */
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "util/panic.h"

namespace remora::util {

/** Closed set of error causes shared across remora subsystems. */
enum class ErrorCode : uint8_t
{
    kOk = 0,
    /** Descriptor id does not name a live segment. */
    kBadDescriptor,
    /** Generation number on the request is stale. */
    kStaleGeneration,
    /** Offset/count falls outside the segment. */
    kOutOfBounds,
    /** Operation not permitted by the segment's rights mask. */
    kAccessDenied,
    /** Name not present in a registry. */
    kNotFound,
    /** Name already present in a registry. */
    kAlreadyExists,
    /** Request or reply failed to decode. */
    kMalformed,
    /** Operation did not complete within its deadline. */
    kTimeout,
    /** Resource exhaustion (tables full, fifo full, no memory). */
    kResource,
    /** Invalid argument from the caller. */
    kInvalidArgument,
    /** Unspecified internal failure. */
    kInternal,
};

/** Human-readable name for an error code. */
const char *errorCodeName(ErrorCode code);

/** Success-or-error value without a payload. */
class Status
{
  public:
    /** Success. */
    Status() = default;

    /** Failure with a code and optional context message. */
    Status(ErrorCode code, std::string message = {})
        : code_(code), message_(std::move(message))
    {}

    /** Named constructor for success. */
    static Status okStatus() { return Status(); }

    /** True when no error occurred. */
    bool ok() const { return code_ == ErrorCode::kOk; }

    /** The error code (kOk on success). */
    ErrorCode code() const { return code_; }

    /** The context message; may be empty. */
    const std::string &message() const { return message_; }

    /** "code: message" rendering for logs. */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::kOk;
    std::string message_;
};

/**
 * A value of type T or a Status describing why it is absent.
 *
 * @tparam T The payload type carried on success.
 */
template <typename T>
class Result
{
  public:
    /** Successful result carrying a value. */
    Result(T value) : state_(std::move(value)) {}

    /**
     * Failed result; @p status must not be ok (that would leave the
     * payload indeterminate).
     */
    Result(Status status) : state_(std::move(status))
    {
        REMORA_ASSERT(!std::get<Status>(state_).ok());
    }

    /** True when a value is present. */
    bool ok() const { return std::holds_alternative<T>(state_); }

    /** The status; kOk when a value is present. */
    Status
    status() const
    {
        return ok() ? Status() : std::get<Status>(state_);
    }

    /** Access the value; the result must be ok. */
    const T &
    value() const
    {
        REMORA_ASSERT(ok());
        return std::get<T>(state_);
    }

    /** Mutable access to the value; the result must be ok. */
    T &
    value()
    {
        REMORA_ASSERT(ok());
        return std::get<T>(state_);
    }

    /** Move the value out; the result must be ok. */
    T
    take()
    {
        REMORA_ASSERT(ok());
        return std::move(std::get<T>(state_));
    }

  private:
    std::variant<T, Status> state_;
};

} // namespace remora::util
