#include "predictors/quantizer.hpp"

#include "lossless/lz.hpp"

namespace aesz {

std::size_t QuantEncoder::write(ByteWriter& w) const {
  const auto code_blob = qcodec::encode_codes(codes_);
  w.put_blob(code_blob);
  ByteWriter uw;
  uw.put_array<float>(unpred_);
  w.put_blob(lz::compress(uw.bytes()));
  return code_blob.size();
}

QuantDecoder::QuantDecoder(ByteReader& r, double abs_eb, std::size_t n)
    : quant_(abs_eb), codes_(qcodec::decode_codes(r.get_blob())) {
  if (codes_.size() != n)
    throw Error(ErrCode::kCorruptStream, "code count mismatch");
  const auto unpred_bytes = lz::decompress(r.get_blob());
  ByteReader ur(unpred_bytes);
  unpred_ = ur.get_array<float>();
}

}  // namespace aesz
