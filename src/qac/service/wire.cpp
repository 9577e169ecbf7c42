#include "qac/service/wire.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

namespace qac::service {

const char kWireMagic[4] = {'Q', 'S', 'V', 'C'};

namespace {

// magic | version u32 | payload size u64 | FNV-1a u64 (serial.h).
constexpr size_t kFrameHeaderSize = 4 + 4 + 8 + 8;

// A frame larger than this is a protocol violation, not a big
// request; reject before allocating.
constexpr uint64_t kMaxFrameBody = uint64_t{1} << 30;

} // namespace

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::Ok:
        return "ok";
    case ErrorCode::TruncatedHeader:
    case ErrorCode::BadMagic:
    case ErrorCode::VersionMismatch:
    case ErrorCode::TruncatedPayload:
    case ErrorCode::ChecksumMismatch:
        return artifact::frameErrorName(
            static_cast<artifact::FrameError>(code));
    case ErrorCode::BadRequest:
        return "bad_request";
    case ErrorCode::UnknownObject:
        return "unknown_object";
    case ErrorCode::UnknownSolver:
        return "unknown_solver";
    case ErrorCode::QueueFull:
        return "queue_full";
    case ErrorCode::Draining:
        return "draining";
    case ErrorCode::Internal:
        return "internal";
    case ErrorCode::Disconnected:
        return "disconnected";
    }
    return "unknown";
}

ErrorCode
fromFrameError(artifact::FrameError code)
{
    return static_cast<ErrorCode>(static_cast<uint32_t>(code));
}

// ------------------------------------------------------- body codecs

std::string
encodeHello(const Hello &hello)
{
    artifact::Writer w;
    w.u32(hello.protocol);
    w.str(hello.server);
    w.u64(hello.solvers.size());
    for (const auto &s : hello.solvers)
        w.str(s);
    w.u64(hello.objects.size());
    for (const auto &o : hello.objects) {
        w.str(o.digest);
        w.str(o.name);
        w.u64(o.logical_vars);
        w.u64(o.logical_terms);
        w.u8(o.embedded ? 1 : 0);
    }
    w.u32(hello.queue_depth);
    w.u32(hello.max_loaded);
    return w.take();
}

bool
parseHello(std::string_view bytes, Hello &out)
{
    artifact::Reader r(bytes);
    Hello h;
    h.protocol = r.u32();
    h.server = r.str();
    // Counts are bounded by the least encoded size of their elements:
    // a solver name is a u64 length plus bytes; an object is two of
    // those, two u64s and a u8.
    uint64_t nsolvers = r.count(8);
    for (uint64_t i = 0; i < nsolvers && r.ok(); ++i)
        h.solvers.push_back(r.str());
    uint64_t nobjects = r.count(8 + 8 + 8 + 8 + 1);
    for (uint64_t i = 0; i < nobjects && r.ok(); ++i) {
        ObjectInfo o;
        o.digest = r.str();
        o.name = r.str();
        o.logical_vars = r.u64();
        o.logical_terms = r.u64();
        o.embedded = r.u8() != 0;
        h.objects.push_back(std::move(o));
    }
    h.queue_depth = r.u32();
    h.max_loaded = r.u32();
    if (!r.ok() || r.remaining() != 0)
        return false;
    out = std::move(h);
    return true;
}

std::string
encodeError(const ErrorFrame &err)
{
    artifact::Writer w;
    w.u64(err.request_id);
    w.u32(static_cast<uint32_t>(err.code));
    w.str(err.message);
    return w.take();
}

bool
parseError(std::string_view bytes, ErrorFrame &out)
{
    artifact::Reader r(bytes);
    ErrorFrame e;
    e.request_id = r.u64();
    e.code = static_cast<ErrorCode>(r.u32());
    e.message = r.str();
    if (!r.ok() || r.remaining() != 0)
        return false;
    out = std::move(e);
    return true;
}

// ------------------------------------------------------- frame codec

std::string
encodeFrame(FrameKind kind, std::string_view body)
{
    std::string payload;
    payload.reserve(1 + body.size());
    payload.push_back(static_cast<char>(kind));
    payload.append(body);
    return artifact::frame(kWireMagic, payload);
}

std::optional<std::string>
decodeFrame(std::string_view frame, FrameKind *kind, ErrorCode *code,
            std::string *error)
{
    artifact::FrameError fe = artifact::FrameError::Ok;
    auto payload = artifact::unframe(frame, kWireMagic, error, &fe);
    if (!payload) {
        if (code)
            *code = fromFrameError(fe);
        return std::nullopt;
    }
    if (payload->empty()) {
        if (code)
            *code = ErrorCode::TruncatedPayload;
        if (error)
            *error = "frame payload missing its kind byte";
        return std::nullopt;
    }
    *kind = static_cast<FrameKind>(
        static_cast<uint8_t>((*payload)[0]));
    if (code)
        *code = ErrorCode::Ok;
    return std::string(payload->substr(1));
}

// ---------------------------------------------------- blocking fd IO

namespace {

bool
writeAll(int fd, const char *data, size_t size, std::string *error)
{
    size_t off = 0;
    while (off < size) {
        ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::string("write: ") +
                    std::strerror(errno);
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/**
 * Read exactly @p size bytes.  Returns 1 on success, 0 on clean EOF
 * before the first byte, -1 on error or mid-record EOF.
 */
int
readAll(int fd, char *data, size_t size, std::string *error)
{
    size_t off = 0;
    while (off < size) {
        ssize_t n = ::read(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::string("read: ") + std::strerror(errno);
            return -1;
        }
        if (n == 0) {
            if (off == 0)
                return 0;
            if (error)
                *error = "connection closed mid-frame";
            return -1;
        }
        off += static_cast<size_t>(n);
    }
    return 1;
}

} // namespace

bool
writeFrame(int fd, FrameKind kind, std::string_view body,
           std::string *error)
{
    std::string frame = encodeFrame(kind, body);
    return writeAll(fd, frame.data(), frame.size(), error);
}

std::optional<std::string>
readFrame(int fd, FrameKind *kind, ErrorCode *code, std::string *error)
{
    if (code)
        *code = ErrorCode::Ok;
    std::string buf(kFrameHeaderSize, '\0');
    int rc = readAll(fd, buf.data(), buf.size(), error);
    if (rc == 0)
        return std::nullopt; // clean EOF, code stays Ok
    if (rc < 0) {
        if (code)
            *code = ErrorCode::TruncatedHeader;
        return std::nullopt;
    }
    // Bytes 8..16 of the header are the little-endian payload size
    // (serial.h layout); pull it out so we know how much to read.
    uint64_t payload_size = 0;
    for (int i = 7; i >= 0; --i)
        payload_size = (payload_size << 8) |
            static_cast<uint8_t>(buf[8 + i]);
    if (payload_size > kMaxFrameBody) {
        if (code)
            *code = ErrorCode::BadRequest;
        if (error)
            *error = "frame payload exceeds protocol limit";
        return std::nullopt;
    }
    size_t total = kFrameHeaderSize + static_cast<size_t>(payload_size);
    buf.resize(total);
    if (payload_size > 0 &&
        readAll(fd, buf.data() + kFrameHeaderSize,
                static_cast<size_t>(payload_size), error) != 1) {
        if (code)
            *code = ErrorCode::TruncatedPayload;
        return std::nullopt;
    }
    return decodeFrame(buf, kind, code, error);
}

} // namespace qac::service
