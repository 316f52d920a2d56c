#include "common/random.hpp"

#include <random>

namespace adc::common {

namespace {

/// FNV-1a 64-bit hash, used only for seed splitting (not cryptographic).
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  constexpr std::uint64_t prime = 1099511628211ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= prime;
  }
  return h;
}

constexpr std::uint64_t fnv_offset = 14695981039346656037ULL;

/// One MT19937-64 twist: the new word k from the old words k and k+1 and
/// the word m places away, with the standard `(y & 1) ? a : 0` as a mask.
std::uint64_t twist(std::uint64_t word, std::uint64_t next, std::uint64_t far) {
  constexpr std::uint64_t upper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t a = 0xb5026f5aa96619e9ULL;
  const std::uint64_t y = (word & upper) | (next & ~upper);
  return far ^ (y >> 1) ^ (a & (0 - (y & 1)));
}

}  // namespace

void MersenneTwister64::refill() {
  if (next_ == kN) {
    // A later generation: the standard full twist, words 0..kN-kM-1 first.
    for (std::size_t k = 0; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    next_ = 0;
  } else if (const std::size_t k = next_; k < kN - kM) {
    // The first generation's word k needs seed words up to k + kM. Locals,
    // because the state words may alias the size_t members.
    std::size_t seeded = seeded_;
    for (std::uint64_t prev = x_[seeded - 1]; seeded <= k + kM; ++seeded) {
      prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded;
      x_[seeded] = prev;
    }
    seeded_ = seeded;
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    ready_ = k + 1;
    return;
  }
  // Words kN-kM..kN-1 read the new words 0..kM-1; the last wraps to word 0.
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
  }
  x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  ready_ = kN;
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

Rng Rng::child(std::string_view tag, std::uint64_t index) const {
  std::uint64_t h = fnv_offset;
  h = fnv1a(h, &seed_, sizeof(seed_));
  h = fnv1a(h, tag.data(), tag.size());
  h = fnv1a(h, &index, sizeof(index));
  return Rng(h);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::uint64_t Rng::index(std::uint64_t n) {
  std::uniform_int_distribution<std::uint64_t> dist(0, n - 1);
  return dist(engine_);
}

}  // namespace adc::common
