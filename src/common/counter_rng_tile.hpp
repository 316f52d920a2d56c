/// \file counter_rng_tile.hpp
/// The tiled structure-of-arrays bodies of the fast profile's noise fills,
/// shared between baseline translation units (counter_rng.cpp, NoisePlane)
/// and the batch engine's per-ISA kernels (src/batch/), which re-compile
/// them with AVX2 / AVX-512 code generation enabled:
///  * `philox_normal_rows<W>`, the one noise-plane fill: W streams (one key
///    per lane) side by side, written as lane-minor rows, for a listed
///    subset of Philox blocks. NoisePlane::generate lists every block;
///    PipelineAdc and the batch kernel list only the blocks whose deviates
///    a sample always reads (PipelineAdc::eager_blocks,
///    pipeline/fast_layout.hpp);
///  * `philox_normal_fill_ptr`, the dense one-stream fill behind the public
///    `philox_normal_fill`, the reference the tests compare the planes
///    against and the fill-rate probe of the end-to-end benchmark. It is
///    kept apart because writing one contiguous stream in place is faster
///    than the row template's per-block scatter at one lane (about 25 % on
///    the AVX-512 tier).
///
/// Everything here is ADC_ALWAYS_INLINE: these bodies must never be emitted
/// as out-of-line COMDAT copies from a wide-ISA translation unit (the linker
/// could pick such a copy for baseline callers and crash SSE2 hosts). The
/// arithmetic is element-wise IEEE with no contraction-sensitive idioms, so
/// every ISA tier produces bit-identical output — the positional-determinism
/// contract the batch engine's parity tests pin.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/counter_rng.hpp"
#include "common/fastmath.hpp"

namespace adc::common::tile {

/// Blocks per tile of the structure-of-arrays bulk loop. 128 blocks = 256
/// deviates; the scratch arrays stay inside L1 while each pass is long
/// enough for the auto-vectorizer.
inline constexpr std::size_t kTileBlocks = 128;

/// Philox4x32-10 over a tile of consecutive counters, round-major: the four
/// cipher words live in structure-of-arrays form and each round is a flat
/// loop across the tile. Calling philox4x32() per block keeps the 10-round
/// dependency chain inside one iteration and compiles scalar — round-major
/// is ~1.5x faster and bit-identical (same round network, same constants;
/// the per-round key is a scalar loop invariant).
///
/// The cipher words are held as 32-bit values in *64-bit* lanes (each array
/// element stays < 2^32 by construction: every store is either a masked low
/// half or a 32-bit shift-down of a 64-bit product). A u32-lane layout packs
/// twice as many words per vector, but the widening 32x32->64 multiply then
/// forces the vectorizer to emit zero-extends, lane extracts and cross-lane
/// compaction permutes around every product; in u64 lanes the same
/// multiply, shift, mask and xor are all straight vertical ops. Measured on
/// the dev box the u64-lane form is ~7% faster end-to-end, and it avoids
/// the shuffle-port pressure entirely on microarchitectures where 64-bit
/// lane multiplies are cheap.
ADC_ALWAYS_INLINE inline void philox4x32_tile(std::uint64_t block, std::uint64_t stream,
                                              std::uint64_t key, std::size_t tile,
                                              std::uint64_t* lo, std::uint64_t* hi) {
  constexpr std::uint64_t kMask32 = 0xffffffffull;
  constexpr std::uint64_t kMul0 = 0xD2511F53u;
  constexpr std::uint64_t kMul1 = 0xCD9E8D57u;
  constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
  constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1
  std::uint64_t c0[kTileBlocks];
  std::uint64_t c1[kTileBlocks];
  std::uint64_t c2[kTileBlocks];
  std::uint64_t c3[kTileBlocks];
  const std::uint64_t s_lo = stream & kMask32;
  const std::uint64_t s_hi = stream >> 32;
  for (std::size_t b = 0; b < tile; ++b) {
    const std::uint64_t ctr = block + b;
    c0[b] = ctr & kMask32;
    c1[b] = ctr >> 32;
    c2[b] = s_lo;
    c3[b] = s_hi;
  }
  std::uint32_t k0 = static_cast<std::uint32_t>(key);
  std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t rk0 = k0;
    const std::uint64_t rk1 = k1;
    for (std::size_t b = 0; b < tile; ++b) {
      // The & kMask32 is a no-op on the value (the words are 32-bit clean)
      // but tells the vectorizer the product needs no 64-bit-high correction.
      const std::uint64_t p0 = kMul0 * (c0[b] & kMask32);
      const std::uint64_t p1 = kMul1 * (c2[b] & kMask32);
      c0[b] = (p1 >> 32) ^ c1[b] ^ rk0;
      c1[b] = p1 & kMask32;
      c2[b] = (p0 >> 32) ^ c3[b] ^ rk1;
      c3[b] = p0 & kMask32;
    }
    k0 += kWeyl0;
    k1 += kWeyl1;
  }
  for (std::size_t b = 0; b < tile; ++b) {
    lo[b] = c0[b] | (c1[b] << 32);
    hi[b] = c2[b] | (c3[b] << 32);
  }
}

/// `out[i] = philox_normal_at(key, stream, first + i)` for i in [0, n), on
/// raw pointers (no std::span: the batch TUs must stay free of template
/// instantiations that could leak wide-ISA COMDAT bodies). Identical
/// algorithm and bits as the public `philox_normal_fill`.
ADC_ALWAYS_INLINE inline void philox_normal_fill_ptr(std::uint64_t key, std::uint64_t stream,
                                                     std::uint64_t first, double* out,
                                                     std::size_t n) {
  std::size_t i = 0;
  if (n == 0) return;
  // Leading odd lane: position `first` is the sin lane of block first/2.
  if ((first & 1u) != 0) {
    out[i++] = philox_normal_at(key, stream, first);
  }
  // Whole blocks, tiled structure-of-arrays: separate passes for the integer
  // cipher, the radius, and the angle keep each loop body uniform (no mixed
  // int/double dependency chains), so the vectorizer can work on every pass.
  // Elementwise the operations are exactly philox_normal_pair's, so the bulk
  // loop is bit-identical to philox_normal_at at every position.
  std::uint64_t block = (first + i) >> 1;
  std::uint64_t lo[kTileBlocks];
  std::uint64_t hi[kTileBlocks];
  double u1[kTileBlocks];
  double radius[kTileBlocks];
  double angle[kTileBlocks];
  while (n - i >= 2) {
    const std::size_t tile = ((n - i) / 2 < kTileBlocks) ? (n - i) / 2 : kTileBlocks;
    philox4x32_tile(block, stream, key, tile, lo, hi);
    for (std::size_t b = 0; b < tile; ++b) {
      // The 53-bit uniforms converted as hi22*2^31 + lo31: two *signed*
      // 32-bit int->double conversions (the only width SSE2 can vectorize)
      // whose halves are non-negative and whose sum is an exact integer
      // below 2^53 — bit-identical to the direct 64-bit conversion in
      // philox_normal_pair.
      const std::uint64_t b1 = lo[b] >> 11;
      const std::uint64_t b2 = hi[b] >> 11;
      const double d1 =
          static_cast<double>(static_cast<std::int32_t>(b1 >> 31)) * 0x1p31 +
          static_cast<double>(static_cast<std::int32_t>(b1 & 0x7fffffffu));
      const double d2 =
          static_cast<double>(static_cast<std::int32_t>(b2 >> 31)) * 0x1p31 +
          static_cast<double>(static_cast<std::int32_t>(b2 & 0x7fffffffu));
      u1[b] = (d1 + 1.0) * 0x1p-53;
      angle[b] = fastmath::kTwoPi * (d2 * 0x1p-53);
    }
    // Radius pass, fast contract v2: division-free log_fast + rsqrt-seeded
    // sqrt_fast, so the whole pass is multiplies and adds — under AVX-512
    // this loop issues zero vdivpd/vsqrtpd (the divider-port wall that
    // capped contract v1 at ~2x; see docs/PERFORMANCE.md).
    for (std::size_t b = 0; b < tile; ++b) {
      radius[b] = fastmath::sqrt_fast(-2.0 * fastmath::log_fast(u1[b]));
    }
    for (std::size_t b = 0; b < tile; ++b) {
      double s = 0.0;
      double c = 0.0;
      fastmath::sincos_fast(angle[b], s, c);
      out[i + 2 * b] = radius[b] * c;
      out[i + 2 * b + 1] = radius[b] * s;
    }
    block += tile;
    i += 2 * tile;
  }
  // Trailing even lane.
  if (i < n) {
    out[i] = philox_normal_at(key, stream, first + i);
  }
}

/// A periodic set of Philox blocks, relative to a fill's first block
/// `first >> 1`: block b is listed when (b - (first >> 1)) mod `period` is
/// one of the `count` ascending `offsets` (each < `period`).
struct BlockList {
  const std::uint32_t* offsets = nullptr;
  std::size_t count = 0;
  std::uint64_t period = 1;
};

/// One tile of `philox_normal_rows`: the `tile` listed blocks in `blocks`, each on
/// all W lanes. Element e = bi·W + l is block blocks[bi] under keys[l], so
/// every pass is a flat loop over tile·W elements (the lane loop innermost
/// with its constant trip count, the shape the vectorizer takes at any W),
/// and the per-lane round keys are the only lane-indexed operand.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void rows_tile(const std::uint64_t* keys, std::uint64_t stream,
                                        const std::uint64_t* blocks, std::size_t tile,
                                        std::uint64_t first, std::uint64_t end, double* rows) {
  constexpr std::uint64_t kMask32 = 0xffffffffull;
  constexpr std::uint64_t kMul0 = 0xD2511F53u;
  constexpr std::uint64_t kMul1 = 0xCD9E8D57u;
  constexpr std::uint64_t kWeyl0 = 0x9E3779B9u;  // golden ratio
  constexpr std::uint64_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1
  std::uint64_t c0[kTileBlocks];
  std::uint64_t c1[kTileBlocks];
  std::uint64_t c2[kTileBlocks];
  std::uint64_t c3[kTileBlocks];
  const std::uint64_t s_lo = stream & kMask32;
  const std::uint64_t s_hi = stream >> 32;
  for (std::size_t bi = 0; bi < tile; ++bi) {
    for (std::size_t l = 0; l < W; ++l) {
      c0[bi * W + l] = blocks[bi] & kMask32;
      c1[bi * W + l] = blocks[bi] >> 32;
      c2[bi * W + l] = s_lo;
      c3[bi * W + l] = s_hi;
    }
  }
  // The 32-bit key words of each lane, advanced by the Weyl constants each
  // round (mod 2^32, as philox4x32's uint32 key words wrap).
  std::uint64_t k0[W];
  std::uint64_t k1[W];
  for (std::size_t l = 0; l < W; ++l) {
    k0[l] = keys[l] & kMask32;
    k1[l] = keys[l] >> 32;
  }
  for (int round = 0; round < 10; ++round) {
    for (std::size_t bi = 0; bi < tile; ++bi) {
      for (std::size_t l = 0; l < W; ++l) {
        const std::size_t e = bi * W + l;
        const std::uint64_t p0 = kMul0 * (c0[e] & kMask32);
        const std::uint64_t p1 = kMul1 * (c2[e] & kMask32);
        c0[e] = (p1 >> 32) ^ c1[e] ^ k0[l];
        c1[e] = p1 & kMask32;
        c2[e] = (p0 >> 32) ^ c3[e] ^ k1[l];
        c3[e] = p0 & kMask32;
      }
    }
    for (std::size_t l = 0; l < W; ++l) {
      k0[l] = (k0[l] + kWeyl0) & kMask32;
      k1[l] = (k1[l] + kWeyl1) & kMask32;
    }
  }
  // Box-Muller on the flat tile: the same passes, and so the same bits, as
  // philox_normal_fill_ptr.
  const std::size_t elems = tile * W;
  double u1[kTileBlocks];
  double angle[kTileBlocks];
  double radius[kTileBlocks];
  double zc[kTileBlocks];
  double zs[kTileBlocks];
  for (std::size_t e = 0; e < elems; ++e) {
    const std::uint64_t b1 = c0[e] >> 11 | (c1[e] << 21);
    const std::uint64_t b2 = c2[e] >> 11 | (c3[e] << 21);
    const double d1 = static_cast<double>(static_cast<std::int32_t>(b1 >> 31)) * 0x1p31 +
                      static_cast<double>(static_cast<std::int32_t>(b1 & 0x7fffffffu));
    const double d2 = static_cast<double>(static_cast<std::int32_t>(b2 >> 31)) * 0x1p31 +
                      static_cast<double>(static_cast<std::int32_t>(b2 & 0x7fffffffu));
    u1[e] = (d1 + 1.0) * 0x1p-53;
    angle[e] = fastmath::kTwoPi * (d2 * 0x1p-53);
  }
  for (std::size_t e = 0; e < elems; ++e) {
    radius[e] = fastmath::sqrt_fast(-2.0 * fastmath::log_fast(u1[e]));
  }
  for (std::size_t e = 0; e < elems; ++e) {
    double s = 0.0;
    double c = 0.0;
    fastmath::sincos_fast(angle[e], s, c);
    zc[e] = radius[e] * c;
    zs[e] = radius[e] * s;
  }
  // Scatter each block's two lane vectors to its rows; a block straddling
  // either end of [first, end) writes only its half inside.
  for (std::size_t bi = 0; bi < tile; ++bi) {
    const std::uint64_t q = 2 * blocks[bi];
    if (q >= first) {
      double* out = rows + (q - first) * W;
      for (std::size_t l = 0; l < W; ++l) out[l] = zc[bi * W + l];
    }
    if (q + 1 < end) {
      double* out = rows + (q + 1 - first) * W;
      for (std::size_t l = 0; l < W; ++l) out[l] = zs[bi * W + l];
    }
  }
}

/// The lane-minor noise fill: for every position q in [first, first + n)
/// whose block q/2 `list` names, `rows[(q - first)·W + l] =
/// philox_normal_at(keys[l], stream, q)` for each of the W lanes. Unlisted
/// positions are left untouched. With every block listed at W = 1 this is
/// `philox_normal_fill_ptr`, bit for bit.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void philox_normal_rows(const std::uint64_t* keys, std::uint64_t stream,
                                                 std::uint64_t first, std::size_t n,
                                                 const BlockList& list, double* rows) {
  static_assert(W >= 1 && kTileBlocks % W == 0, "a tile holds whole lane groups");
  constexpr std::size_t kTile = kTileBlocks / W;  // blocks per tile
  const std::uint64_t end = first + n;
  std::uint64_t blocks[kTile];
  std::size_t tile = 0;
  for (std::uint64_t start = first >> 1; 2 * start < end; start += list.period) {
    for (std::size_t i = 0; i < list.count; ++i) {
      const std::uint64_t b = start + list.offsets[i];
      if (2 * b >= end) break;
      blocks[tile++] = b;
      if (tile == kTile) {
        rows_tile<W>(keys, stream, blocks, tile, first, end, rows);
        tile = 0;
      }
    }
  }
  if (tile > 0) rows_tile<W>(keys, stream, blocks, tile, first, end, rows);
}

}  // namespace adc::common::tile
