#include "service/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "service/protocol.hpp"
#include "util/crc32c.hpp"

namespace aesz::service {

std::uint64_t FaultyTransport::next_rand() {
  if (!rng_seeded_) {
    // splitmix64 seeding, then xorshift64* per draw: tiny, deterministic,
    // independent across seeds.
    std::uint64_t z = opt_.seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    rng_state_ = (z ^ (z >> 31)) | 1;
    rng_seeded_ = true;
  }
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  return rng_state_ * 0x2545f4914f6cdd1dull;
}

namespace {
double unit(std::uint64_t r) {
  return static_cast<double>(r >> 11) * 0x1.0p-53;  // [0, 1)
}
}  // namespace

Status FaultyTransport::send_frame(std::span<const std::uint8_t> frame) {
  ++stats_.sends;
  if (dead_) return Status::error(ErrCode::kIoError, "connection reset");
  // Order matters for determinism: one draw per candidate fault, always
  // consumed, so disabling one rate never shifts another's schedule.
  const double drop = unit(next_rand());
  const double flip = unit(next_rand());
  const double reset = unit(next_rand());
  if (drop < opt_.drop_rate) {
    ++stats_.dropped;
    return {};  // the void says thanks
  }
  if (flip < opt_.flip_rate && !frame.empty()) {
    ++stats_.flipped;
    // The flip must land AFTER checksumming — a wire fault damages bytes
    // the sender already committed, trailer included. So build the exact
    // wire image the inner transport would have produced (prefix | body |
    // CRC trailer when enabled), flip one bit of the BODY region, and
    // ship it raw. The peer's CRC verification is what should catch this.
    const bool with_crc = inner_->frame_crc();
    std::uint32_t len = static_cast<std::uint32_t>(frame.size());
    if (with_crc) len |= kFrameCrcFlag;
    std::vector<std::uint8_t> wire(4 + frame.size() +
                                   (with_crc ? kFrameCrcBytes : 0));
    std::memcpy(wire.data(), &len, 4);
    std::memcpy(wire.data() + 4, frame.data(), frame.size());
    if (with_crc) {
      const std::uint32_t crc = util::crc32c(frame);
      std::memcpy(wire.data() + 4 + frame.size(), &crc, kFrameCrcBytes);
    }
    const std::uint64_t bit = next_rand() % (frame.size() * 8);
    wire[4 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (auto* t = dynamic_cast<TcpTransport*>(inner_.get()))
      return t->send_raw(wire);
    // Unknown inner transport: no raw hook, so the flipped body goes
    // through its normal framing (pre-CRC — the peer sees a damaged but
    // consistently-checksummed frame and must catch it at the parse layer).
    return inner_->send_frame(
        std::span<const std::uint8_t>(wire).subspan(4, frame.size()));
  }
  if (reset < opt_.reset_rate) {
    ++stats_.reset;
    dead_ = true;
    inner_->shutdown();  // the peer sees the connection die too
    return Status::error(ErrCode::kIoError, "connection reset");
  }
  return inner_->send_frame(frame);
}

Expected<std::vector<std::uint8_t>> FaultyTransport::recv_frame() {
  ++stats_.recvs;
  if (dead_) return Status::error(ErrCode::kIoError, "connection reset");
  if (opt_.recv_delay_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.recv_delay_ms));
  return inner_->recv_frame();
}

bool FaultyFile::write(std::span<const std::uint8_t> data) {
  if (torn_) return false;
  const std::size_t room = budget_ - bytes_.size();
  const std::size_t take = std::min(room, data.size());
  bytes_.insert(bytes_.end(), data.begin(), data.begin() + take);
  if (take < data.size()) {
    torn_ = true;  // short write: the rest of this append never lands
    return false;
  }
  return true;
}

}  // namespace aesz::service
