/**
 * @file
 * Structured, recoverable errors for the library layer.
 *
 * The logging helpers (panic/fatal) terminate the process and are
 * reserved for programming errors and tool entry points. Everything a
 * long campaign must survive — a corrupt trace file, a half-written
 * CSV cache, a fit that diverges — is reported as an Error carried in
 * a Result<T>, so callers can retry, skip the cell, or degrade
 * gracefully instead of discarding hours of simulation.
 */

#ifndef MOSAIC_SUPPORT_ERROR_HH
#define MOSAIC_SUPPORT_ERROR_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mosaic
{

/** Broad failure classes; Io is the only one treated as transient. */
enum class ErrorCategory
{
    Io,      ///< open/read/write/rename failed; retrying may help
    Corrupt, ///< file exists but fails validation (magic, CRC, version)
    Parse,   ///< text input does not match the expected grammar
    Config,  ///< the user asked for something that does not exist
    Numeric, ///< non-finite values or a diverging numerical procedure
    Timeout, ///< a watchdog deadline expired; the work was abandoned
    Net,     ///< socket setup/read/write failed or a peer disconnected
    Shutdown,///< refused because the daemon is draining for shutdown
    Resource,///< a bounded resource (physical frames) was exhausted
    Internal ///< invariant violation surfaced as an error (from a throw)
};

/** Human-readable category tag, e.g. "io" or "corrupt". */
const char *errorCategoryName(ErrorCategory category);

/**
 * One failure: a category, a message, and a chain of context notes
 * added as the error propagates outward (innermost first).
 */
class Error
{
  public:
    Error(ErrorCategory category, std::string message)
        : category_(category), message_(std::move(message))
    {
    }

    ErrorCategory category() const { return category_; }
    const std::string &message() const { return message_; }
    const std::vector<std::string> &context() const { return context_; }

    /** Append a context note ("while loading trace cache x.mtsc"). */
    Error &
    addContext(std::string note)
    {
        context_.push_back(std::move(note));
        return *this;
    }

    /** Copying variant of addContext() for return-statement chaining. */
    Error
    withContext(std::string note) const
    {
        Error copy = *this;
        copy.addContext(std::move(note));
        return copy;
    }

    /** Retrying has a chance of succeeding (transient I/O failures). */
    bool transient() const { return category_ == ErrorCategory::Io; }

    /** Render "category error: message (context; context)". */
    std::string str() const;

  private:
    ErrorCategory category_;
    std::string message_;
    std::vector<std::string> context_;
};

/**
 * Either a value or an Error. A deliberately small subset of
 * std::expected (which this toolchain's standard library predates).
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Error error) : error_(std::move(error)) {}

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    T &
    value()
    {
        if (!ok())
            throw std::logic_error("Result::value() on error: " +
                                   error_->str());
        return *value_;
    }

    const T &
    value() const
    {
        if (!ok())
            throw std::logic_error("Result::value() on error: " +
                                   error_->str());
        return *value_;
    }

    const Error &
    error() const
    {
        if (ok())
            throw std::logic_error("Result::error() on success");
        return *error_;
    }

    T
    valueOr(T fallback) const
    {
        return ok() ? *value_ : std::move(fallback);
    }

    /** Unwrap, converting a library error into a thrown exception
     *  (for legacy throwing wrappers and tool entry points). */
    T
    okOrThrow() &&
    {
        if (!ok())
            throw std::runtime_error(error_->str());
        return std::move(*value_);
    }

  private:
    std::optional<T> value_;
    std::optional<Error> error_;
};

/** Result<void>: success carries nothing. */
template <>
class [[nodiscard]] Result<void>
{
  public:
    Result() = default;
    Result(Error error) : error_(std::move(error)) {}

    bool ok() const { return !error_.has_value(); }
    explicit operator bool() const { return ok(); }

    const Error &
    error() const
    {
        if (ok())
            throw std::logic_error("Result::error() on success");
        return *error_;
    }

    void
    okOrThrow() const
    {
        if (!ok())
            throw std::runtime_error(error_->str());
    }

  private:
    std::optional<Error> error_;
};

/** Shorthand constructors. */
inline Error
ioError(std::string message)
{
    return Error(ErrorCategory::Io, std::move(message));
}

inline Error
corruptError(std::string message)
{
    return Error(ErrorCategory::Corrupt, std::move(message));
}

inline Error
parseError(std::string message)
{
    return Error(ErrorCategory::Parse, std::move(message));
}

inline Error
configError(std::string message)
{
    return Error(ErrorCategory::Config, std::move(message));
}

inline Error
numericError(std::string message)
{
    return Error(ErrorCategory::Numeric, std::move(message));
}

inline Error
timeoutError(std::string message)
{
    return Error(ErrorCategory::Timeout, std::move(message));
}

inline Error
netError(std::string message)
{
    return Error(ErrorCategory::Net, std::move(message));
}

inline Error
shutdownError(std::string message)
{
    return Error(ErrorCategory::Shutdown, std::move(message));
}

inline Error
resourceError(std::string message)
{
    return Error(ErrorCategory::Resource, std::move(message));
}

/**
 * Thrown from deep inside the replay loop when a cooperative watchdog
 * deadline expires (see SimContext::deadline()). The campaign catches
 * it at the cell boundary and converts it into a Timeout Error, so a
 * hung cell becomes one isolated CellFailure instead of a wedged
 * worker.
 */
class TimeoutError : public std::runtime_error
{
  public:
    explicit TimeoutError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Thrown when a bounded simulated resource is exhausted and cannot be
 * reclaimed — e.g. a FramePool whose frame budget cannot hold even a
 * single page of the requested size. Like TimeoutError, it is caught
 * at the campaign cell boundary and converted into a Resource Error so
 * one impossible cell does not take down the run.
 */
class ResourceError : public std::runtime_error
{
  public:
    explicit ResourceError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

} // namespace mosaic

#endif // MOSAIC_SUPPORT_ERROR_HH
