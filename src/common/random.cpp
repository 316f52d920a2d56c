#include "common/random.hpp"

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

}  // namespace

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
