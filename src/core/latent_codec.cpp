#include "core/latent_codec.hpp"

#include "predictors/quantizer.hpp"
#include "util/bytestream.hpp"

namespace aesz::latent_codec {

float quantize_value(float v, double abs_eb) {
  float recon = v;
  LinearQuantizer(abs_eb).quantize(v, /*pred=*/0.0f, recon);
  return recon;
}

std::vector<std::uint8_t> encode(std::span<const float> latents,
                                 double abs_eb) {
  QuantEncoder enc(abs_eb, latents.size());
  for (float v : latents) enc.code(v, 0.0f);
  ByteWriter w;
  w.put(abs_eb);
  w.put_varint(latents.size());
  enc.write(w);
  return w.take();
}

std::vector<float> decode(std::span<const std::uint8_t> blob) {
  ByteReader r(blob);
  const double abs_eb = r.get<double>();
  const std::uint64_t n = r.get_varint();
  QuantDecoder dec(r, abs_eb, n);
  std::vector<float> out(n);
  for (float& v : out) v = dec.next(0.0f);
  return out;
}

}  // namespace aesz::latent_codec
