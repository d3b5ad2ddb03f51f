#include "lossless/lz.hpp"

#include <algorithm>
#include <cstring>

#include "lossless/huffman.hpp"
#include "util/bytestream.hpp"
#include "util/error.hpp"
#include "util/stage_timer.hpp"

namespace aesz::lz {
namespace {

constexpr std::size_t kWindow = 1u << 16;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1u << 16;
constexpr int kMaxChain = 48;
constexpr int kHashBits = 16;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// Greedy hash-chain matching of `input` into `w`'s token stream, up to
/// the trailing literal run, whose start it returns: head[h] = most recent
/// position with hash h, prev[pos & mask] = previous position in the
/// chain, -1 ends a chain. Both tables hold `Pos`, 32 bits wide for any
/// input under 2 GiB, and prev never outgrows the input, so a small input
/// costs a small scratch.
template <typename Pos>
std::size_t match_tokens(std::span<const std::uint8_t> input, ByteWriter& w) {
  const std::size_t n = input.size();
  std::vector<Pos> head(std::size_t{1} << kHashBits, -1);
  // Below the window every position has its own prev slot (pos & mask ==
  // pos < n), so an n-entry table is enough.
  std::vector<Pos> prev(std::min(n, kWindow), -1);
  const std::uint8_t* base = input.data();

  auto insert = [&](std::size_t pos) {
    const std::uint32_t h = hash4(base + pos);
    prev[pos & (kWindow - 1)] = head[h];
    head[h] = static_cast<Pos>(pos);
  };

  std::size_t pos = 0;
  std::size_t lit_start = 0;
  while (pos + kMinMatch <= n) {
    // Find the longest match among the most recent kMaxChain candidates.
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    const std::size_t limit = std::min(n - pos, kMaxMatch);
    Pos cand = head[hash4(base + pos)];
    for (int chain = 0;
         chain < kMaxChain && cand >= 0 &&
         pos - static_cast<std::size_t>(cand) <= kWindow;
         ++chain) {
      const auto cpos = static_cast<std::size_t>(cand);
      const std::size_t len = match_length(base + cpos, base + pos, limit);
      if (len > best_len) {
        best_len = len;
        best_dist = pos - cpos;
        if (len == limit) break;
      }
      cand = prev[cpos & (kWindow - 1)];
    }

    if (best_len >= kMinMatch) {
      w.put_varint(pos - lit_start);
      w.put_bytes(input.subspan(lit_start, pos - lit_start));
      w.put_varint(best_len);
      w.put_varint(best_dist - 1);
      const std::size_t end = pos + best_len;
      // Index positions inside the match (bounded to keep O(n)).
      const std::size_t index_end = std::min(end, n - kMinMatch + 1);
      for (; pos < index_end; ++pos) insert(pos);
      pos = end;
      lit_start = pos;
    } else {
      insert(pos);
      ++pos;
    }
  }
  return lit_start;
}

}  // namespace

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input) {
  prof::StageScope stage(prof::Stage::kEntropy);
  ByteWriter w;
  const std::size_t n = input.size();
  w.put_varint(n);
  std::size_t lit_start = 0;
  if (n >= kMinMatch)
    lit_start = n < (std::size_t{1} << 31)
                    ? match_tokens<std::int32_t>(input, w)
                    : match_tokens<std::int64_t>(input, w);
  w.put_varint(n - lit_start);
  w.put_bytes(input.subspan(lit_start));
  w.put_varint(0);  // terminator
  return w.take();
}

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> stream) {
  prof::StageScope stage(prof::Stage::kEntropy);
  ByteReader r(stream);
  const std::uint64_t n = r.get_varint();
  std::vector<std::uint8_t> out;
  // Cap the speculative reservation: a corrupt length must not become a
  // multi-gigabyte allocation. The overflow checks below still enforce `n`
  // exactly; out simply grows on demand past the cap.
  out.reserve(std::min<std::uint64_t>(n, std::uint64_t{1} << 20));
  while (true) {
    const std::uint64_t lit_len = r.get_varint();
    AESZ_CHECK_MSG(out.size() + lit_len <= n, "lz: literal overflow");
    const auto lits = r.get_bytes(lit_len);
    out.insert(out.end(), lits.begin(), lits.end());
    const std::uint64_t match_len = r.get_varint();
    if (match_len == 0) break;
    const std::uint64_t dist = r.get_varint() + 1;
    AESZ_CHECK_MSG(dist <= out.size(), "lz: bad match distance");
    AESZ_CHECK_MSG(out.size() + match_len <= n, "lz: match overflow");
    // Overlapping copies are intentional (run-length style matches).
    std::size_t src = out.size() - dist;
    for (std::uint64_t i = 0; i < match_len; ++i) out.push_back(out[src++]);
  }
  AESZ_CHECK_MSG(out.size() == n, "lz: size mismatch");
  return out;
}

}  // namespace aesz::lz

namespace aesz::qcodec {

std::vector<std::uint8_t> encode_codes(
    std::span<const std::uint16_t> codes) {
  return lz::compress(huffman::encode(codes));
}

std::vector<std::uint16_t> decode_codes(
    std::span<const std::uint8_t> stream) {
  return huffman::decode(lz::decompress(stream));
}

}  // namespace aesz::qcodec
