#include "src/common/rng.h"

namespace mudi {

namespace {

constexpr size_t kN = Mt19937_64::kStateSize;
constexpr size_t kM = 156;  // MT19937-64's middle word offset
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

// One twisted word: the upper bit of `hi` joined to the lower 31 of `lo`,
// shifted, with the matrix applied branch-free when the joined word is odd.
inline uint64_t Twist(uint64_t mid, uint64_t hi, uint64_t lo) {
  uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return mid ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

}  // namespace

// libstdc++'s _M_gen_rand, word for word. Each loop reads a word before
// overwriting it and has no branch, so GCC -O2 vectorizes both (check with
// -fopt-info-vec). -O2's cheap cost model vectorizes only trip counts that
// need no scalar epilogue, so the second loop stops at an even 154 words
// and the last two are written out.
void Mt19937_64::Refill() {
  uint64_t* __restrict x = state_;
  for (size_t k = 0; k < kN - kM; ++k) {
    x[k] = Twist(x[k + kM], x[k], x[k + 1]);
  }
  for (size_t k = kN - kM; k < kN - 2; ++k) {
    x[k] = Twist(x[k - (kN - kM)], x[k], x[k + 1]);
  }
  x[kN - 2] = Twist(x[kM - 2], x[kN - 2], x[kN - 1]);
  x[kN - 1] = Twist(x[kM - 1], x[kN - 1], x[0]);
  index_ = 0;
}

}  // namespace mudi
