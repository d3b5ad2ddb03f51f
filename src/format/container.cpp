#include "format/container.hpp"

#include <cmath>
#include <string>

#include "sz/common.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace aesz::format {

void write_preamble(ByteWriter& w, const Format& f, const Preamble& p) {
  AESZ_CHECK_ARG(!f.named || (!p.inner.empty() &&
                              p.inner.size() <= kMaxInnerName),
                 "bad inner codec name length");
  AESZ_CHECK_ARG(p.dims.rank >= 1 && p.dims.rank <= 3, "bad rank");
  w.put(f.magic);
  w.put(f.version);
  if (f.named)
    w.put_blob({reinterpret_cast<const std::uint8_t*>(p.inner.data()),
                p.inner.size()});
  else
    w.put(p.inner_magic);
  w.put(static_cast<std::uint8_t>(p.dims.rank));
  for (int i = 0; i < p.dims.rank; ++i) w.put_varint(p.dims[i]);
  w.put(static_cast<std::uint8_t>(p.eb.mode()));
  w.put(p.eb.value());
}

Status read_preamble(ByteReader& r, const Format& f, Preamble& out) {
  if (!r.try_get(out.magic))
    return Status::error(ErrCode::kTruncated, "stream too short for magic");
  if (out.magic != f.magic)
    return Status::error(ErrCode::kBadMagic,
                         std::string("not an ") + f.tag + " stream");
  if (!r.try_get(out.version) || (!f.named && !r.try_get(out.inner_magic)))
    return Status::error(ErrCode::kTruncated,
                         std::string("truncated ") + f.tag + " header");
  if (out.version != f.version && out.version != f.legacy_version)
    return Status::error(ErrCode::kBadHeader,
                         std::string("unsupported ") + f.tag + " version");
  if (f.named) {
    std::span<const std::uint8_t> name;
    if (!r.try_get_blob(name))
      return Status::error(ErrCode::kTruncated, "truncated inner codec name");
    if (name.empty() || name.size() > kMaxInnerName)
      return Status::error(ErrCode::kBadHeader,
                           "bad inner codec name length");
    out.inner.assign(reinterpret_cast<const char*>(name.data()), name.size());
    for (char c : out.inner)
      if (c < 0x20 || c > 0x7E)
        return Status::error(ErrCode::kBadHeader,
                             "non-printable inner codec name");
  }
  if (Status s = sz::read_dims_checked(r, out.dims); !s.ok()) return s;
  std::uint8_t mode = 0;
  double value = 0.0;
  if (!r.try_get(mode) || !r.try_get(value))
    return Status::error(ErrCode::kTruncated, "truncated error bound");
  out.eb = ErrorBound(static_cast<EbMode>(mode), value);
  return {};
}

Status check_bound(const ErrorBound& eb, bool usable) {
  if (static_cast<std::uint8_t>(eb.mode()) >
      static_cast<std::uint8_t>(EbMode::kPSNR))
    return Status::error(ErrCode::kBadHeader, "bad error-bound mode");
  if (usable ? !eb.usable() : !std::isfinite(eb.value()))
    return Status::error(ErrCode::kBadHeader, "bad error-bound value");
  return {};
}

Expected<Preamble> peek(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  std::uint32_t magic = 0;
  if (!r.try_get(magic))
    return Status::error(ErrCode::kTruncated, "stream too short for magic");
  const Format* f = nullptr;
  for (const Format* c : {&kAepc, &kAetc, &kAepr})
    if (c->magic == magic) f = c;
  if (f == nullptr)
    return Status::error(ErrCode::kBadMagic, "not a container stream");
  Preamble p;
  ByteReader pr(stream);
  if (Status s = read_preamble(pr, *f, p); !s.ok()) return s;
  if (f->named)
    if (Status s = check_bound(p.eb, /*usable=*/true); !s.ok()) return s;
  return p;
}

Expected<std::vector<std::span<const std::uint8_t>>> slice_entries(
    std::span<const std::uint8_t> region, std::span<const std::size_t> lengths,
    std::span<const std::uint32_t> crcs, bool allow_prefix,
    const char* what) {
  std::size_t present = 0, end = 0;
  while (present < lengths.size() &&
         lengths[present] <= region.size() - end)
    end += lengths[present++];
  if (present == 0 || (present < lengths.size() && !allow_prefix) ||
      (present < lengths.size() && end != region.size()))
    return Status::error(ErrCode::kTruncated,
                         std::string("payload ends mid-") + what);
  if (end != region.size())
    return Status::error(ErrCode::kCorruptStream,
                         std::string("trailing bytes after the last ") + what);
  std::vector<std::span<const std::uint8_t>> out;
  out.reserve(present);
  for (std::size_t i = 0, at = 0; i < present; at += lengths[i++]) {
    out.push_back(region.subspan(at, lengths[i]));
    if (!crcs.empty() && util::crc32c(out.back()) != crcs[i])
      return Status::error(ErrCode::kChecksumMismatch,
                           std::string(what) + " " + std::to_string(i) +
                               " checksum mismatch");
  }
  return out;
}

}  // namespace aesz::format
