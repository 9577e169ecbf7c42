#include "qac/artifact/serial.h"

#include <cstring>

#include "qac/util/hash.h"
#include "qac/util/logging.h"

namespace qac::artifact {

void
Writer::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void
Writer::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void
Writer::f64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::str(std::string_view s)
{
    u64(s.size());
    buf_.append(s.data(), s.size());
}

void
Writer::raw(const void *data, size_t size)
{
    buf_.append(static_cast<const char *>(data), size);
}

bool
Reader::take(void *out, size_t n)
{
    if (!ok_ || n > remaining()) {
        ok_ = false;
        std::memset(out, 0, n);
        return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
}

uint8_t
Reader::u8()
{
    unsigned char b = 0;
    take(&b, 1);
    return b;
}

uint32_t
Reader::u32()
{
    unsigned char b[4];
    if (!take(b, sizeof(b)))
        return 0;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

uint64_t
Reader::u64()
{
    unsigned char b[8];
    if (!take(b, sizeof(b)))
        return 0;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

double
Reader::f64()
{
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

uint64_t
Reader::count(size_t least_elem_bytes)
{
    uint64_t n = u64();
    if (n > remaining() / least_elem_bytes) {
        ok_ = false;
        return 0;
    }
    return n;
}

std::string
Reader::str()
{
    uint64_t len = u64();
    if (!ok_ || len > remaining()) {
        ok_ = false;
        return {};
    }
    std::string out(data_.substr(pos_, static_cast<size_t>(len)));
    pos_ += static_cast<size_t>(len);
    return out;
}

std::string
frame(const char magic[4], std::string_view payload)
{
    Writer w;
    w.raw(magic, 4);
    w.u32(kArtifactFormatVersion);
    w.u64(payload.size());
    w.u64(util::fnv1a64(payload.data(), payload.size()));
    w.raw(payload.data(), payload.size());
    return w.take();
}

const char *
frameErrorName(FrameError code)
{
    switch (code) {
    case FrameError::Ok: return "ok";
    case FrameError::TruncatedHeader: return "truncated_header";
    case FrameError::BadMagic: return "bad_magic";
    case FrameError::VersionMismatch: return "version_mismatch";
    case FrameError::TruncatedPayload: return "truncated_payload";
    case FrameError::ChecksumMismatch: return "checksum_mismatch";
    }
    return "unknown";
}

std::optional<std::string_view>
unframe(std::string_view file, const char magic[4], std::string *error,
        FrameError *code)
{
    constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;
    if (code)
        *code = FrameError::Ok;
    auto fail = [&](FrameError why_code, const std::string &why)
        -> std::optional<std::string_view> {
        if (error)
            *error = why;
        if (code)
            *code = why_code;
        return std::nullopt;
    };
    if (file.size() < kHeaderSize)
        return fail(FrameError::TruncatedHeader,
                    format("truncated header: %zu of %zu bytes",
                           file.size(), kHeaderSize));
    if (std::memcmp(file.data(), magic, 4) != 0)
        return fail(FrameError::BadMagic,
                    format("bad magic: not a %.4s artifact", magic));
    Reader r(file.substr(4));
    uint32_t version = r.u32();
    if (version != kArtifactFormatVersion)
        return fail(FrameError::VersionMismatch,
                    format("format version mismatch: file v%u, "
                           "toolchain v%u",
                           version, kArtifactFormatVersion));
    uint64_t size = r.u64();
    uint64_t digest = r.u64();
    std::string_view payload = file.substr(kHeaderSize);
    if (payload.size() != size)
        return fail(FrameError::TruncatedPayload,
                    format("truncated payload: %zu of %llu bytes",
                           payload.size(),
                           static_cast<unsigned long long>(size)));
    if (util::fnv1a64(payload.data(), payload.size()) != digest)
        return fail(FrameError::ChecksumMismatch,
                    "checksum mismatch: payload corrupt");
    return payload;
}

} // namespace qac::artifact
