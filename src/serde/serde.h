// Compact binary serialization used wherever data crosses a simulated
// process boundary (Spark shuffle blocks, MapReduce spills, DFS content).
//
// Primitives are written little-endian with varint-encoded lengths. Custom
// types opt in either by specializing pstk::serde::Codec<T> or by being a
// pair/tuple/vector/string composition of supported types.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "buf/bytes.h"
#include "common/check.h"
#include "common/status.h"

namespace pstk::serde {

using Buffer = std::vector<std::uint8_t>;

class Writer {
 public:
  Writer() = default;
  explicit Writer(Buffer buffer) : buffer_(std::move(buffer)) {}

  /// Pre-size the underlying buffer to at least `total` bytes so hot encode
  /// loops append without reallocation. `total` is an absolute capacity, not
  /// a delta (matching std::vector::reserve).
  void Reserve(std::size_t total) { buffer_.reserve(total); }

  void WriteBytes(const void* data, std::size_t size) {
    // resize + memcpy, not vector::insert: GCC 12 inlines insert's growth
    // path and reports a false -Wstringop-overflow on it.
    if (size == 0) return;
    const std::size_t at = buffer_.size();
    buffer_.resize(at + size);
    std::memcpy(buffer_.data() + at, data, size);
  }

  template <typename T>
  void WriteRaw(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  void WriteVarint(std::uint64_t value) {
    while (value >= 0x80) {
      buffer_.push_back(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    buffer_.push_back(static_cast<std::uint8_t>(value));
  }

  [[nodiscard]] const Buffer& buffer() const { return buffer_; }
  [[nodiscard]] Buffer TakeBuffer() { return std::move(buffer_); }
  /// Hand the encoded bytes over as an immutable buffer — ownership
  /// transfer, no copy. The writer is left empty.
  [[nodiscard]] buf::Bytes TakeBytes() {
    return buf::Bytes::FromVector(std::move(buffer_));
  }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Buffer buffer_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const Buffer& buffer)
      : Reader(buffer.data(), buffer.size()) {}
  /// Zero-copy decode straight out of an immutable buffer, which must
  /// outlive the reader.
  explicit Reader(const buf::Bytes& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  [[nodiscard]] bool AtEnd() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  Status ReadBytes(void* out, std::size_t size) {
    if (size > remaining()) return OutOfRange("serde: buffer underrun");
    if (size == 0) return OkStatus();  // `out` may be null then
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return OkStatus();
  }

  /// Zero-copy read: a view of the next `size` bytes, valid as long as the
  /// underlying buffer. Fails without moving the cursor if fewer remain.
  Result<std::string_view> ReadView(std::size_t size) {
    if (size > remaining()) return OutOfRange("serde: buffer underrun");
    const std::string_view view(reinterpret_cast<const char*>(data_ + pos_),
                                size);
    pos_ += size;
    return view;
  }

  template <typename T>
  Result<T> ReadRaw() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    PSTK_RETURN_IF_ERROR(ReadBytes(&value, sizeof(T)));
    return value;
  }

  Result<std::uint64_t> ReadVarint() {
    std::uint64_t value = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= size_) return OutOfRange("serde: varint underrun");
      const std::uint8_t byte = data_[pos_++];
      if (shift >= 63 && byte > 1) return OutOfRange("serde: varint overflow");
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Customization point: specialize Codec<T> for user types.
template <typename T, typename Enable = void>
struct Codec;

// --- encoded-size computation (no materialization) --------------------------

[[nodiscard]] inline std::size_t VarintLen(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// Exact encoded size for the built-in codecs, computed without writing a
/// single byte. `kEnabled` marks types whose size is computable this way;
/// EncodedSize() falls back to a dry encode for everything else, and
/// Codec<std::vector<T>>::Encode uses it to pre-size the output buffer.
template <typename T, typename Enable = void>
struct SizeOf {
  static constexpr bool kEnabled = false;
  static std::size_t Of(const T&) { return 0; }
};

template <typename T>
struct SizeOf<T, std::enable_if_t<std::is_arithmetic_v<T>>> {
  static constexpr bool kEnabled = true;
  static std::size_t Of(const T&) { return sizeof(T); }
};

template <>
struct SizeOf<std::string> {
  static constexpr bool kEnabled = true;
  static std::size_t Of(const std::string& s) {
    return VarintLen(s.size()) + s.size();
  }
};

template <typename A, typename B>
struct SizeOf<std::pair<A, B>,
              std::enable_if_t<SizeOf<A>::kEnabled && SizeOf<B>::kEnabled>> {
  static constexpr bool kEnabled = true;
  static std::size_t Of(const std::pair<A, B>& p) {
    return SizeOf<A>::Of(p.first) + SizeOf<B>::Of(p.second);
  }
};

template <typename... Ts>
struct SizeOf<std::tuple<Ts...>,
              std::enable_if_t<(SizeOf<Ts>::kEnabled && ...)>> {
  static constexpr bool kEnabled = true;
  static std::size_t Of(const std::tuple<Ts...>& t) {
    return std::apply(
        [](const Ts&... elems) {
          return (std::size_t{0} + ... + SizeOf<Ts>::Of(elems));
        },
        t);
  }
};

template <typename T>
struct SizeOf<std::vector<T>, std::enable_if_t<SizeOf<T>::kEnabled>> {
  static constexpr bool kEnabled = true;
  static std::size_t Of(const std::vector<T>& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      return VarintLen(v.size()) + v.size() * sizeof(T);
    } else {
      std::size_t total = VarintLen(v.size());
      for (const T& elem : v) total += SizeOf<T>::Of(elem);
      return total;
    }
  }
};

// --- arithmetic types -------------------------------------------------------

template <typename T>
struct Codec<T, std::enable_if_t<std::is_arithmetic_v<T>>> {
  static void Encode(Writer& w, const T& value) { w.WriteRaw(value); }
  static Status Decode(Reader& r, T& out) {
    auto res = r.ReadRaw<T>();
    if (!res.ok()) return res.status();
    out = res.value();
    return OkStatus();
  }
};

// --- std::string ------------------------------------------------------------

template <>
struct Codec<std::string> {
  static void Encode(Writer& w, const std::string& value) {
    w.Reserve(w.size() + VarintLen(value.size()) + value.size());
    w.WriteVarint(value.size());
    w.WriteBytes(value.data(), value.size());
  }
  static Status Decode(Reader& r, std::string& out) {
    auto len = r.ReadVarint();
    if (!len.ok()) return len.status();
    if (len.value() > r.remaining()) return OutOfRange("serde: bad string len");
    out.resize(len.value());
    return r.ReadBytes(out.data(), out.size());
  }
};

// --- std::pair --------------------------------------------------------------

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static void Encode(Writer& w, const std::pair<A, B>& value) {
    Codec<A>::Encode(w, value.first);
    Codec<B>::Encode(w, value.second);
  }
  static Status Decode(Reader& r, std::pair<A, B>& out) {
    PSTK_RETURN_IF_ERROR(Codec<A>::Decode(r, out.first));
    return Codec<B>::Decode(r, out.second);
  }
};

// --- std::tuple -------------------------------------------------------------

template <typename... Ts>
struct Codec<std::tuple<Ts...>> {
  static void Encode(Writer& w, const std::tuple<Ts...>& value) {
    std::apply(
        [&](const Ts&... elems) {
          (Codec<Ts>::Encode(w, elems), ...);
        },
        value);
  }
  static Status Decode(Reader& r, std::tuple<Ts...>& out) {
    Status status;
    std::apply(
        [&](Ts&... elems) {
          ((status.ok() ? (status = Codec<Ts>::Decode(r, elems), 0) : 0), ...);
        },
        out);
    return status;
  }
};

// --- std::vector ------------------------------------------------------------

template <typename T>
struct Codec<std::vector<T>> {
  // Numbers (but not the bit-packed vector<bool>) go as one block: the
  // same bytes as one WriteRaw per element.
  static constexpr bool kBlock =
      std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

  static void Encode(Writer& w, const std::vector<T>& value) {
    if constexpr (SizeOf<std::vector<T>>::kEnabled) {
      w.Reserve(w.size() + SizeOf<std::vector<T>>::Of(value));
    }
    w.WriteVarint(value.size());
    if constexpr (kBlock) {
      w.WriteBytes(value.data(), value.size() * sizeof(T));
    } else {
      for (const T& elem : value) Codec<T>::Encode(w, elem);
    }
  }
  static Status Decode(Reader& r, std::vector<T>& out) {
    auto len = r.ReadVarint();
    if (!len.ok()) return len.status();
    if constexpr (kBlock) {
      // The count comes from the payload: check it before the allocation.
      if (len.value() > r.remaining() / sizeof(T)) {
        return OutOfRange("serde: bad vector count");
      }
      out.resize(static_cast<std::size_t>(len.value()));
      return r.ReadBytes(out.data(), out.size() * sizeof(T));
    } else {
      out.clear();
      // Never reserve more elements than there are bytes left. Every
      // built-in element but std::tuple<> takes at least one byte, so a
      // hostile count fails in the element decode below instead of in the
      // allocation.
      out.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(len.value(), r.remaining())));
      for (std::uint64_t i = 0; i < len.value(); ++i) {
        T elem{};
        PSTK_RETURN_IF_ERROR(Codec<T>::Decode(r, elem));
        out.push_back(std::move(elem));
      }
      return OkStatus();
    }
  }
};

// --- convenience free functions ----------------------------------------------

template <typename T>
void Encode(Writer& w, const T& value) {
  Codec<T>::Encode(w, value);
}

template <typename T>
Buffer EncodeToBuffer(const T& value) {
  Writer w;
  Codec<T>::Encode(w, value);
  return w.TakeBuffer();
}

template <typename T>
Status Decode(Reader& r, T& out) {
  return Codec<T>::Decode(r, out);
}

template <typename T>
Result<T> DecodeFromBuffer(const Buffer& buffer) {
  Reader r(buffer);
  T out{};
  PSTK_RETURN_IF_ERROR(Codec<T>::Decode(r, out));
  if (!r.AtEnd()) return OutOfRange("serde: trailing bytes");
  return out;
}

/// Encode into an immutable buffer (ownership handover, no copy).
template <typename T>
buf::Bytes EncodeToBytes(const T& value) {
  Writer w;
  Codec<T>::Encode(w, value);
  return w.TakeBytes();
}

/// Decode straight out of an immutable buffer — no copy.
template <typename T>
Result<T> DecodeFromBytes(const buf::Bytes& bytes) {
  Reader r(bytes);
  T out{};
  PSTK_RETURN_IF_ERROR(Codec<T>::Decode(r, out));
  if (!r.AtEnd()) return OutOfRange("serde: trailing bytes");
  return out;
}

/// Serialized size without materializing the buffer. For the built-in codecs
/// this is a pure size computation (SizeOf<T>); custom Codec specializations
/// fall back to a dry encode. Used by cost models and cache accounting.
template <typename T>
std::size_t EncodedSize(const T& value) {
  if constexpr (SizeOf<T>::kEnabled) {
    return SizeOf<T>::Of(value);
  } else {
    Writer w;
    Codec<T>::Encode(w, value);
    return w.size();
  }
}

}  // namespace pstk::serde
