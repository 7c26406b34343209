// Canonical Huffman codes implemented from scratch, and the LSB-first bit
// streams that carry them (the entropy stage of lzh.h).
//
// Codes are canonical: a code is fully described by its lengths, and codes
// of one length are assigned in increasing symbol order. Lengths are
// capped (15 bits for data, 7 for the code-length code), so a code is
// written into a bit stream bit-reversed — the decoder peeks the low bits
// of its buffer and looks them up in a table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace ginja::huffman {

inline constexpr int kMaxBits = 15;
inline constexpr std::size_t kMaxSymbols = 512;

// A length-limited canonical code for freqs[0, n) (n <= kMaxSymbols):
// lengths[n] and codes[n], each symbol's code as a bit-reversed
// "code | length << 16" word ready for BitWriter::PutCode (both 0 for
// unused symbols). A
// single used symbol gets length 1; otherwise the code is complete.
// Deterministic: symbols are ranked by (frequency, index), and a code over
// max_bits is shortened by moving leaves up the tree.
void BuildCode(const std::uint32_t* freqs, std::size_t n, int max_bits,
               std::uint8_t* lengths, std::uint32_t* codes);

// Appends bits LSB first. Put only accumulates; Flush stores the whole
// bytes with one 8-byte write, so the caller flushes before 57 bits are
// pending, and the buffer needs 8 bytes of slack past the last bit.
class BitWriter {
 public:
  explicit BitWriter(std::uint8_t* out) : p_(out) {}

  // n <= 32.
  void Put(std::uint32_t bits, int n) {
    buf_ |= static_cast<std::uint64_t>(bits) << count_;
    count_ += n;
  }
  // Puts a BuildCode word.
  void PutCode(std::uint32_t code) { Put(code & 0xFFFFu, static_cast<int>(code >> 16)); }

  void Flush() {
    std::uint64_t v = buf_;
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    std::memcpy(p_, &v, 8);
    const int bytes = count_ >> 3;
    p_ += bytes;
    buf_ >>= 8 * bytes;
    count_ &= 7;
  }

  // Flushes the last partial byte (zero-padded); returns the end.
  std::uint8_t* Finish() {
    Flush();
    return p_ + (count_ > 0 ? 1 : 0);
  }

 private:
  std::uint8_t* p_;
  std::uint64_t buf_ = 0;
  int count_ = 0;
};

// Reads bits LSB first, never outside its input. Past the end it supplies
// zero bits and counts them, so a caller checks consumed() against the
// input's size once at the end instead of on every read.
class BitReader {
 public:
  explicit BitReader(ByteView in)
      : begin_(in.data()), p_(in.data()), end_(in.data() + in.size()) {}

  // Tops the buffer up to at least 56 bits.
  void Refill() {
    if (end_ - p_ >= 8) {
      std::uint64_t v;
      std::memcpy(&v, p_, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      v = __builtin_bswap64(v);
#endif
      buf_ |= v << count_;
      p_ += (63 - count_) >> 3;
      count_ |= 56;
      return;
    }
    for (; count_ <= 56; count_ += 8) {
      if (p_ < end_) {
        buf_ |= static_cast<std::uint64_t>(*p_++) << count_;
      } else {
        ++past_end_;
      }
    }
  }

  // The next n buffered bits (n <= 32, n <= buffered), not consumed.
  std::uint32_t Peek(int n) const {
    return static_cast<std::uint32_t>(buf_ & ((std::uint64_t{1} << n) - 1));
  }
  void Skip(int n) {
    buf_ >>= n;
    count_ -= n;
  }
  std::uint32_t Take(int n) {
    const std::uint32_t v = Peek(n);
    Skip(n);
    return v;
  }

  // Bits consumed so far, including zero bits supplied past the end.
  std::size_t consumed() const {
    return static_cast<std::size_t>(p_ - begin_ + past_end_) * 8 -
           static_cast<std::size_t>(count_);
  }

 private:
  const std::uint8_t* begin_;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::uint64_t buf_ = 0;
  int count_ = 0;
  std::size_t past_end_ = 0;
};

// Table-driven decoder for one canonical code. Codes up to kTableBits
// resolve with one lookup; a longer one is found by comparing the next
// max_bits bits, read most significant first, against each length's
// left-justified limit.
class Decoder {
 public:
  static constexpr int kTableBits = 11;

  // Builds the tables from lengths[0, n) (n <= kMaxSymbols). False when a
  // length exceeds max_bits or the lengths are not a prefix code: the
  // code must be complete, except that a single symbol may have length 1.
  // All-zero lengths are a valid empty code that decodes nothing.
  bool Init(const std::uint8_t* lengths, std::size_t n, int max_bits);

  // Decodes one symbol; the reader must hold at least max_bits bits.
  // Returns -1 for a bit pattern that is not a code.
  int Decode(BitReader& in) const {
    const std::uint16_t e = fast_[in.Peek(kTableBits)];
    if (e == 0) return DecodeSlow(in);
    in.Skip(e & 15);
    return e >> 4;
  }

 private:
  int DecodeSlow(BitReader& in) const;

  // (symbol << 4) | length for codes of at most kTableBits, else 0.
  std::uint16_t fast_[1 << kTableBits];
  std::uint16_t sorted_[kMaxSymbols];  // symbols by (length, index)
  // Per length: one past its last code, left-justified to max_bits, and
  // the sorted_ index of code 0 of that length (first code's index minus
  // the first code).
  std::uint32_t limit_[kMaxBits + 1];
  std::int32_t index_[kMaxBits + 1];
  int max_bits_ = 0;
};

}  // namespace ginja::huffman
