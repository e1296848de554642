#ifndef SGNN_COMMON_BYTES_H_
#define SGNN_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"

namespace sgnn::common {

/// The one binary codec of the tree: the pipeline checkpoint, the sharded
/// CSR store and the `sgnn::dist` wire all lay bytes out and read them back
/// through this module, so a POD's layout (raw host bytes, as every format
/// has always written them) and the rejection of a bad length are decided
/// once. Each format keeps its own diagnostics and status code; the codec
/// only reports *that* a read ran past the end, through `ByteReader::ok()`.

/// Append-only encoder over a growable buffer. Reserve the final size up
/// front when it is known: bulk sections go in as one `Array` append, so a
/// large record costs one allocation and one copy per section.
class ByteWriter {
 public:
  explicit ByteWriter(size_t reserve = 0) { buf_.reserve(reserve); }

  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&v, sizeof(T));
  }

  /// `n` contiguous elements, no length prefix.
  template <typename T>
  void Array(const T* data, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(data, n * sizeof(T));
  }

  /// u32 byte count, then the characters.
  void Str32(std::string_view s) {
    Pod(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  /// u64 element count, then the elements.
  template <typename T>
  void Vec64(const std::vector<T>& v) {
    Pod(static_cast<uint64_t>(v.size()));
    Array(v.data(), v.size());
  }

  /// Zero-fills up to absolute offset `size` (section alignment padding).
  void PadTo(size_t size) { buf_.resize(size, '\0'); }

  /// Appends the CRC-32 of every byte written so far; `StripCrcTrailer`
  /// is the inverse.
  void CrcTrailer() { Pod(Crc32(buf_.data(), buf_.size())); }

  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked forward decoder. A read past the end fails the reader
/// (and every read after it) instead of touching memory, so callers decode
/// a whole record and check `ok()` once. Every length-prefixed read checks
/// the count against the bytes left *before* it sizes anything, so a
/// hostile count can neither wrap a size computation nor drive a huge
/// allocation.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : p_(static_cast<const char*>(data)), left_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t left() const { return left_; }

  /// Steps past the next `n` bytes and returns where they start (a
  /// zero-copy view into the input); null once the reader has failed.
  const char* Skip(size_t n) {
    if (!ok_ || n > left_) {
      ok_ = false;
      return nullptr;
    }
    const char* at = p_;
    p_ += n;
    left_ -= n;
    return at;
  }

  void Bytes(void* out, size_t n) {
    const char* at = Skip(n);
    if (at != nullptr && n != 0) std::memcpy(out, at, n);
  }

  template <typename T>
  T Pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    Bytes(&v, sizeof(T));
    return v;
  }

  /// Whether `n` elements of `elem_bytes` each fit in the bytes left: the
  /// overflow-free form of `n * elem_bytes <= left()`.
  bool Fits(uint64_t n, size_t elem_bytes) const {
    return ok_ && n <= left_ / elem_bytes;
  }

  /// Reads `n` elements into `out`, checking they fit before sizing it.
  template <typename T>
  void Array(uint64_t n, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Fits(n, sizeof(T))) {
      ok_ = false;
      return;
    }
    out->resize(n);
    Bytes(out->data(), n * sizeof(T));
  }

  /// Inverse of `ByteWriter::Str32`.
  std::string Str32() {
    const uint32_t n = Pod<uint32_t>();
    const char* at = Skip(n);
    return at != nullptr ? std::string(at, n) : std::string();
  }

  /// Inverse of `ByteWriter::Vec64`.
  template <typename T>
  void Vec64(std::vector<T>* out) {
    const uint64_t n = Pod<uint64_t>();
    Array(n, out);
  }

 private:
  const char* p_;
  size_t left_;
  bool ok_ = true;
};

/// Verifies and strips a `ByteWriter::CrcTrailer`: the bytes before the
/// trailing u32 when their CRC-32 matches it; nullopt when `record` is
/// shorter than the trailer or the CRC differs.
std::optional<std::string_view> StripCrcTrailer(std::string_view record);

/// Reads a whole file: `kNotFound` when it cannot be opened, `kIOError`
/// when the read fails.
SGNN_NODISCARD StatusOr<std::string> ReadFile(const std::string& path);

/// Replaces `path` with `bytes` atomically: the bytes go to a `.tmp`
/// sibling, are flushed, and the sibling is renamed over `path`, so a crash
/// mid-write leaves the old file (or none), never a torn one. The `.tmp` is
/// removed when any step fails. Open/write failures are `kIOError`; a
/// failed rename maps its errno.
SGNN_NODISCARD Status WriteFileAtomic(const std::string& path,
                                      std::string_view bytes);

}  // namespace sgnn::common

#endif  // SGNN_COMMON_BYTES_H_
