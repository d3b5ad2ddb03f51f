#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "lossless/huffman.hpp"
#include "lossless/lz.hpp"
#include "util/bytestream.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aesz {
namespace {

std::vector<std::uint16_t> random_symbols(std::size_t n, std::uint16_t maxv,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint16_t> s(n);
  for (auto& v : s) v = static_cast<std::uint16_t>(rng.below(maxv + 1));
  return s;
}

TEST(Huffman, RoundtripUniform) {
  const auto syms = random_symbols(20000, 255, 1);
  const auto enc = huffman::encode(syms);
  EXPECT_EQ(huffman::decode(enc), syms);
}

TEST(Huffman, RoundtripSkewed) {
  // Geometric-ish distribution like quantization bins around the center.
  Rng rng(2);
  std::vector<std::uint16_t> syms;
  for (int i = 0; i < 30000; ++i) {
    int v = 32768;
    while (rng.uniform() < 0.5 && std::abs(v - 32768) < 40) {
      v += rng.uniform() < 0.5 ? 1 : -1;
    }
    syms.push_back(static_cast<std::uint16_t>(v));
  }
  const auto enc = huffman::encode(syms);
  EXPECT_EQ(huffman::decode(enc), syms);
  // A heavily skewed stream should compress well below 2 bytes/symbol.
  EXPECT_LT(enc.size(), syms.size());
}

TEST(Huffman, RoundtripSingleSymbol) {
  std::vector<std::uint16_t> syms(1000, 42);
  const auto enc = huffman::encode(syms);
  EXPECT_EQ(huffman::decode(enc), syms);
  EXPECT_LT(enc.size(), 300u);  // ~1 bit per symbol + table
}

TEST(Huffman, RoundtripEmpty) {
  std::vector<std::uint16_t> syms;
  const auto enc = huffman::encode(syms);
  EXPECT_TRUE(huffman::decode(enc).empty());
}

TEST(Huffman, RoundtripTwoSymbols) {
  std::vector<std::uint16_t> syms;
  for (int i = 0; i < 100; ++i) syms.push_back(i % 2 ? 7 : 9);
  EXPECT_EQ(huffman::decode(huffman::encode(syms)), syms);
}

TEST(Huffman, RoundtripFullAlphabet) {
  std::vector<std::uint16_t> syms(65536);
  std::iota(syms.begin(), syms.end(), 0);
  EXPECT_EQ(huffman::decode(huffman::encode(syms)), syms);
}

TEST(Huffman, KraftInequalityHolds) {
  Rng rng(3);
  std::vector<std::uint64_t> freq(300);
  for (auto& f : freq) f = rng.below(10000);
  const auto lengths = huffman::code_lengths(freq);
  double kraft = 0.0;
  for (std::size_t i = 0; i < lengths.size(); ++i)
    if (lengths[i]) kraft += std::pow(2.0, -static_cast<double>(lengths[i]));
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, NearEntropyOnSkewedData) {
  // Huffman should be within ~1 bit/symbol of the empirical entropy.
  Rng rng(4);
  std::vector<std::uint16_t> syms;
  std::vector<std::uint64_t> freq(16, 0);
  for (int i = 0; i < 50000; ++i) {
    // P(k) ~ 2^-k
    std::uint16_t k = 0;
    while (k < 15 && rng.uniform() < 0.5) ++k;
    syms.push_back(k);
    ++freq[k];
  }
  double entropy = 0.0;
  for (auto f : freq) {
    if (!f) continue;
    const double p = static_cast<double>(f) / syms.size();
    entropy -= p * std::log2(p);
  }
  const auto enc = huffman::encode(syms);
  const double bits_per_sym = 8.0 * enc.size() / syms.size();
  EXPECT_LT(bits_per_sym, entropy + 1.0);
}

TEST(Huffman, CorruptTableThrows) {
  std::vector<std::uint16_t> syms{1, 2, 3};
  auto enc = huffman::encode(syms);
  enc.resize(enc.size() / 2);  // truncate
  EXPECT_THROW((void)huffman::decode(enc), Error);
}


// ---------------------------------------------------------------------
// Golden encodings captured from the pre-refactor (per-bit) encoder.
// The word-at-a-time encoder must reproduce them byte for byte, and the
// table-driven decoder must decode them — this pins bitstream
// compatibility across the hot-path overhaul. The generators below are
// the exact inputs the fixtures were captured from; keep them in sync.
// ---------------------------------------------------------------------

// GoldenUniform: 2000 symbols -> 2503 bytes
const char* const kGoldenUniform =
    "d00f800280020008010a0109010801080108010a01080108010901080108010701080108"
    "010801080108010901080108010801080108010801080108010801080108010801080108"
    "010801080108010901080108010801080108010901090107010701090109010701080109"
    "010701080108010901070108010901080108010801080109010801080108010801090108"
    "010701090108010701080108010801080108010801080108010901080108010801090108"
    "010901080108010701080109010801080108010801080107010a01090108010801080107"
    "010801080108010801080108010801090108010801090107010801080108010801090108"
    "010801080108010801090108010801080109010901070108010a01080108010801080109"
    "010801080108010801080109010901080108010801090109010701080108010801080108"
    "010801070108010801080109010801080108010801080108010801080108010801080107"
    "010801080108010801080108010801090108010901090108010801070109010901080108"
    "010801090108010801080107010901080109010801080108010801080108010701080108"
    "010901080109010801070108010901080107010801080108010901080109010701090108"
    "010701090109010801090107010801090107010701070108010801080109010701090108"
    "0108010801070109010801080108bf0f5f27f10d39328de79f8b3a54f35c77f689988d92"
    "98bf8446d4fd06634966ef6aa76033d178e5c7f5f1af8f6baa6f18fe04755aa6e6cf83a3"
    "1284ddc3342ac4188dbf3fc30f8caffb31ef4588f98c3f431faa7e31f80d812e944389f2"
    "7fbf81223995f470d3c06e3c206988538a6814554a94c27249721bfc0554798f6c5dfcda"
    "d2e727e6149148065b7a5559b3ae1daa654ba640de5c4fa84f893478d20d49cd1ed1a4ca"
    "c8ad93e77f6ef7e3d5b7def4b3427c49b7b9a5582866cd0c2f41e30a7a666066a9fb8bae"
    "9371fa0ed98da0247cab1c290a755659952b3bd336f9245446c6ad54a9a42d56821f8451"
    "c6de746714b3491f351765b54422f55f6e371034d39c321d2bca5bc93db2a34d8a2cbfc0"
    "9cb7f97aa62f7fe66bb56d646a6666c49572d918bbafd9e49a11158aa87687d61a8b56f5"
    "04dcf277d75d20d030299d632eb8dfda1b0ba4f6bed62dde84bfc609ec8bb1c1bec99a5f"
    "7c8a6838fc693e0d9b93241402de7bf036cf047aaa7a0a999268d0dcd7b68a0a1df55d23"
    "b8b9cb7fe77d5b3d1c89778c96e8270d18557e110d934e4f23382dccf366c2adce1a922f"
    "b293bca66b0827c38bdb5971f537bc682035b249b5367af5ed55173c6074accab5540926"
    "6d651eb61c9481b3d89f8099fa4ea937ebb4bd10d9b544f62074495bf246578ca3cdc1e7"
    "2867f78745613ec0bd4b73ecd5fc8f4bcbf4e259cc78ce963e2b5cd328a46869252618e8"
    "d49c80150954d17097465955c7b71c28d218b6155a1c0c3b255c69b14896bbb722ba55a1"
    "eb083cd2a2b37c22720711a498084cbd44be0b51f0987e244c31cf0b1b5249e21681c2bd"
    "e607024058f8b769cf008a7fa7eeca6d243a8aebb4ed41c0ff71efab3f23ce663f939f57"
    "ace9adb2a888cf8cde7a64819d2d04269d87ffc52ed7327689058807c99704905029735c"
    "20d4f2d78d51d95c9b31d7337e2c4b1802cdfbe7f8c233f435138fa0b9697b01078ea42c"
    "4f7b4ae1d86c969de02303a67bb3af4ad4d2278e6a0d4c53ea9dbfa7f2871e2386abcb6c"
    "b10c24d1bf98586bc3508d49d6d1211a9dde368e37f873ade8fd1f974cedf36294c2f406"
    "1931e9c98c28c882158136f6c2c0559783d4327b825712df89f43f3369d89942e7eceb91"
    "4f04174d38421d8ca790ef9ffe6a08b145d376ce16cce8f4d814a5943cf7e46ab29a43c8"
    "6eb3ab3ef4b064c1a035f94a49369cb9b5b4eae9064d1823b1c3162464fe0df40155993c"
    "cb95b39409ec905430cc88fcbca7feea9075e1aacad5ff84667c25f4bff21d41ce0f8e0e"
    "0424406d7a351beeabfc6a75cceff00ef562f2693af36b6752b26e7bc75046733e5758ef"
    "7750e85970bde3b299fb5a8839d550302d759d986adaf4239fc5a68dab08cb9ca86d0ea5"
    "eef28c347ad5bccad2abee1bdd0bcc347f9a6f459514e36cb76b1ebe97bda25a8155157e"
    "6e52d256c91f47f7f7a9db976bd667f4af20b678c4bbea785df148e5c6f93cdef810b9a6"
    "804181160cec7b5bb0548867fc53fddc94047a48e2e3dcaa6e42ba5ff0c59d8619faa6c2"
    "08274d2e07b5aa5ccb472d53769d892dca1917b207bf801e12d9f49d3445eb87ecd9b800"
    "c16135877353e227668f4dfb26d0c2c29297ff2c3672690cb74b123fb55dfc850e416f61"
    "ae4b2e6da42031a7d272f7180b12bb8a15dda76e9767ea0127207e4c8dc48c71c6507bdf"
    "7b39c37353b535a88d77a2a4184ec105d057043ea7df47ab1c276c03ffe8ba434bab02a9"
    "b2fbbe0c6403f244d07c82da4bebc708bbd08820e5e644aaa8440146bee9c87f92cfc41b"
    "5f9a1943a5640058964f31be857b9bd2a5cecaa645e4d4a789ea876bdd2d76a2b5b34dd4"
    "70a5729de28c6b1e7aea93f5a662ed47113af0329ff19e9309c17efc3ecfac7221ff1890"
    "1694fb7bd1d4fa668a4b324c2edb6d3233a129525bed5d3bbd5e77ed1a7080d5a2bcf9cf"
    "ddf4cadb0025db78ce91b5998c8147bc78f04dba5cafa32f6898cb41e49105f382941e45"
    "65c8a533041cf692685726c20e120083edbda706793300c3573c2f6671715e16bc31d9dd"
    "ceb837e71eb3d26f1c4ad6e116f348ef6bbcf2a0fd999833fab23c2c67ddf9747d0e6441"
    "6d83b4b757a578aa231b753746dced2132bb5b282f7bb4c3e68db267cca91a0358316d0e"
    "72ccd99a94dfaafb67f30c96ed10fba3c443ff421d698dedf05a3c3622cf7ec2a967db61"
    "6f4dc8b215e7cdf2e4d19c5eaf0f96f1d8c5024cbafaabc0eabbb041d22221f44e4948b3"
    "7cf8e4111a638cb13cc4ed5a701a114814f8c8b0d3fa6151120e16360c8caac3b9f335f8"
    "1dad2009adb5296656a8c0cb70efd8c540979f377801a9b39e78711bcce737d0310c13db"
    "b51215b2603b13fd02267519fe8d1b565e9cdd6ccfb57916e35469eb6eef79bc13472427"
    "c3bd36283f7cc55c6d4d97e750746f26a7f26ef17d4a0cb1a450034128f847d51184b38a"
    "ebe6fdce5f23891398e8de0f2c642f39a627affe2bffc4287f3411da8267af1eccfc17f6"
    "212dafb6139f5c5b663c64f7c11be0d4f1cd52df38afd98aba1879595fafe652e8839262"
    "6203d00474e82d8268d2ef4a57e74e1a8c60699b0dfa74bf7e153d1f74fe446767541f18"
    "1512faa3adf216f38ea4b8434f60b86f7fc84bbfe480f823eca60526793983ac8372b8c1"
    "7febd5c05dc68333d48188879bfc4e2af50ffe00ce55ea8e20d6e515189c6c0a4aaabd1a"
    "50b2e21007c96e11bd99cfbcb7e2d5df1f7c1076e2d1425bc8a755c76f2bd649b78a9e74"
    "7138d48d7447bf5992db14fcf4f22d0e12310d";

// GoldenSkewed: 4000 symbols -> 1018 bytes
const char* const kGoldenSkewed =
    "a01f8680020bfbff010a010901070105010201010103010401060108010ada071875f2da"
    "c86cc084e0f95f2e99a9d6860daf9bb9448108b3ee19bcf50ee34fd808c078986fe021ce"
    "771ffe25616676bd40bb2dc4ebfd0a4f51c6613b04eb80bb768dff3406cb5cca3043ef06"
    "43603c11fbb63a332826337e5fed355bd6dcc12f86c600aec3e0f76fd643b3e38cf961dc"
    "233539bded2c7000db41280c18661b3cc1438d198cf9b1df830d23b9dd634e16d6471fc2"
    "7c984503fce0ab357ae9c321dc3e976dadfc20c395cc3c1cb6ae33759665965be9f9369a"
    "d0c4986f8f67034485156bf3c4268b22b8178cce8741f3ee0380dfb059c793017bf69ecc"
    "07723308b00dfe9c50a02118588483817332261c19637c191bdcf7fc9e022448d970deb3"
    "d41b805d64f63b1b6f6b81c3c60f0de968e3e460fe59dd47007bf5a3ceec37d200f360c0"
    "a389d46be8f10445430b8c27df21a199050ff21ede58e74f3036e6e6feefa5edf39881b3"
    "41638d7f7a76834fa007b00359839210e023669a61708475c5e690c1e59d3d2b3ae843c4"
    "b6affb3e0082112b4d3bad1f78e07aeef94984c0f44343ce3103df1bf3c1d82ef32d857b"
    "50eb0c649232b0a1dbe10e0601871d7b2767624ff00c5bfc4cdee2fef5d743d8e05e8d29"
    "d86e30000b3f6003dbc21df0087e62a3e1affd9a6b089602d6a896ffaedb5ed3433a3ce3"
    "89ed19ccc3cd09d842f365fa90ec4ccc286e329e7cfa10baeffc769dfc374cc0ef7dd9e2"
    "09faf66692c169de60037b1e51d0c1e703b405e605633733ed3c8fc6f886f05914a4d6b0"
    "cf19124640c09f18988b19c2a080677d95f76e62188ee875cc1e7140c1689bb8ec9e798c"
    "0c3265e47e0c8997b66fdb5eefdf07864d7c3cb361c320e7ecadc5009d5935b1bbef9506"
    "8c011ac8f191bf80994bccc38d2de3d887fc21f1eaec5938920cc52fc2f44787a2c9fe8c"
    "67e89171cf0327d641653f7814feb18defd8c65ac0c3819f0db9c5b0d1e71fb0595206f4"
    "5a8bbd3c0ad8583773675220867cffe95960c69fe7676e7ec20af6875ef0c6941bd2f830"
    "dec8c08dc0f46fa7c74484613e4058ae301fcea374000151cc13cc8f8a083c00c3e81e60"
    "0b30c6e04326023fc2b0919c77a09d8658af15566c7a3d0fd4fa14179b0f1908f8c4d9d3"
    "5d983fc0fb3d2a1264c6a21964cacd04864764df206e989acd8192e137033c351757c23c"
    "4c677b3cc036ff9406e0a393e32383f2363202f1e5ede43060822c4caf3d1b60765be979"
    "364b8ca30996d67cde34bc0826b1d52b807b7e9e1e2c76fa7f850c36deef736dde84d9bd"
    "3081e8cd01b6308f8db9bb3c22404202ecd8e6a267601297e70df8592c6c9eb1c7a70dce"
    "44d202c8e091c2e7e33f831ecc382c6f61a11a92381f0479b3f10f00dddc3dd36c0cc7f1"
    "36c6d1f89e514c5bb200";

// GoldenSingle: 500 symbols -> 70 bytes
const char* const kGoldenSingle =
    "f4032b012a013f0000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000000000000000";

// GoldenDeep: 6764 symbols -> 2254 bytes
const char* const kGoldenDeep =
    "ec341212001101110110010f010e010d010c010b010a0109010801070106010501040103"
    "01020101a411fffffefffffffdfffdfffe7fffbfffeffffbfffebfffeffffdbffff7fffe"
    "dffffb7fffeffffeeffffeeffffeeffffeeffffeeffffeeffffef7bffffdef7ffffbdfff"
    "fef7bffffdef7ffffbdffffef7bffffdef7ffffdf7df7ffffdf7df7ffffdf7df7ffffdf7"
    "df7ffffdf7df7ffffdf7df7ffffdf7df7ffffdf7df7ffffdf7efdfbf7ffffefdfbf7efdf"
    "bf7ffffefdfbf7efdfbf7ffffefdfbf7efdfbf7ffffefdfbf7efdfbf7ffffefdfbf7efdf"
    "bf7ffffefdfbf7efdfbf7ffffefdfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfb"
    "fbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfb"
    "fbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfbfd7ebfdf"
    "eff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfef"
    "f7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7"
    "fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fb"
    "fd7ebfdfeff7fbfd7ebfdfeff7fbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbe"
    "effbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbe"
    "effbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbe"
    "effbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbe"
    "effbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbeeffbbe"
    "effbbeeffbbeeffbde7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7bef"
    "bdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbd"
    "f7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7"
    "de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de"
    "7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7b"
    "efbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7bef"
    "bdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7de7befbdf7dedddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
    "ddddddddddddddddddb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb66ddb"
    "b66ddbb66ddbb66ddbb66ddbb66ddbb66ddbb6aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa0000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000";


std::vector<std::uint8_t> from_hex(const char* hex) {
  std::vector<std::uint8_t> out;
  for (const char* p = hex; p[0] && p[1]; p += 2) {
    auto nib = [](char c) {
      return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    out.push_back(static_cast<std::uint8_t>((nib(p[0]) << 4) | nib(p[1])));
  }
  return out;
}

std::vector<std::uint16_t> golden_uniform() {
  Rng rng(101);
  std::vector<std::uint16_t> s(2000);
  for (auto& v : s) v = static_cast<std::uint16_t>(rng.below(256));
  return s;
}

std::vector<std::uint16_t> golden_skewed() {
  Rng rng(102);
  std::vector<std::uint16_t> syms;
  for (int i = 0; i < 4000; ++i) {
    int v = 32768;
    while (rng.uniform() < 0.5 && std::abs(v - 32768) < 40)
      v += rng.uniform() < 0.5 ? 1 : -1;
    syms.push_back(static_cast<std::uint16_t>(v));
  }
  return syms;
}

std::vector<std::uint16_t> golden_single() {
  return std::vector<std::uint16_t>(500, 42);
}

std::vector<std::uint16_t> golden_deep() {
  // Fibonacci-count runs: symbol i appears fib(i+1) times, which forces
  // code lengths well past the decoder's 11-bit primary table.
  std::vector<std::uint16_t> syms;
  std::uint64_t a = 1, b = 1;
  for (std::uint16_t s = 0; s < 18; ++s) {
    for (std::uint64_t i = 0; i < a; ++i) syms.push_back(s);
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return syms;
}

struct GoldenCase {
  const char* name;
  const char* hex;
  std::vector<std::uint16_t> syms;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"uniform", kGoldenUniform, golden_uniform()});
  cases.push_back({"skewed", kGoldenSkewed, golden_skewed()});
  cases.push_back({"single", kGoldenSingle, golden_single()});
  cases.push_back({"deep", kGoldenDeep, golden_deep()});
  return cases;
}

TEST(HuffmanGolden, EncoderByteIdenticalToPreRefactor) {
  for (const auto& gc : golden_cases())
    EXPECT_EQ(huffman::encode(gc.syms), from_hex(gc.hex)) << gc.name;
}

TEST(HuffmanGolden, PreRefactorStreamsDecode) {
  for (const auto& gc : golden_cases()) {
    const auto stream = from_hex(gc.hex);
    EXPECT_EQ(huffman::decode(stream), gc.syms) << gc.name;
    EXPECT_EQ(huffman::decode_reference(stream), gc.syms) << gc.name;
  }
}

TEST(HuffmanGolden, DeepCodesExceedPrimaryTable) {
  // The fixture must actually exercise the long-code fallback: its Huffman
  // tree is Fibonacci-deep, far past the 11-bit primary decode table.
  const auto syms = golden_deep();
  std::vector<std::uint64_t> freq(18, 0);
  for (auto s : syms) ++freq[s];
  const auto lengths = huffman::code_lengths(freq);
  int maxlen = 0;
  for (auto l : lengths) maxlen = std::max<int>(maxlen, l);
  EXPECT_GT(maxlen, 11);
  EXPECT_EQ(huffman::decode(huffman::encode(syms)), syms);
}

/// (size, CRC32C) of an encoder's output: a compact pin for outputs too
/// large to keep as hex.
struct Digest {
  std::size_t size;
  std::uint32_t crc;
  bool operator==(const Digest&) const = default;
};

Digest digest(const std::vector<std::uint8_t>& bytes) {
  return {bytes.size(), util::crc32c(bytes)};
}

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.size << ", 0x" << std::hex << d.crc << std::dec
            << "}";
}

/// SZ-style quantization codes: clustered around the 32768 midpoint, with a
/// few far outliers, so the symbol range starts far above 0.
std::vector<std::uint16_t> clustered_codes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint16_t> codes(n);
  for (auto& c : codes) {
    const double g = rng.gaussian() * (rng.below(50) == 0 ? 400.0 : 4.0);
    c = static_cast<std::uint16_t>(32768 + std::lround(g));
  }
  return codes;
}

/// Digests of huffman::encode recorded before its scratch tables were
/// sized by the symbol range: that change must keep every byte.
TEST(HuffmanGolden, RangeEdgeDigestsArePinned) {
  EXPECT_EQ(digest(huffman::encode(clustered_codes(20000, 31))),
            (Digest{11650, 0xd8a1a556}));
  EXPECT_EQ(digest(huffman::encode({})), (Digest{4, 0xed26d9b9}));
  const std::vector<std::uint16_t> one{40000};
  EXPECT_EQ(digest(huffman::encode(one)), (Digest{11, 0xee5dbe4d}));
  const std::vector<std::uint16_t> top(300, 65535);
  EXPECT_EQ(digest(huffman::encode(top)), (Digest{49, 0x94f35dd9}));
}

TEST(Huffman, DecodeMatchesReferenceOnRandomStreams) {
  // Differential fuzz: the table-driven decoder and the per-bit canonical
  // walk must agree symbol for symbol across alphabet shapes.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(1000 + seed);
    std::vector<std::uint16_t> syms;
    const std::size_t n = 2000 + rng.below(3000);
    const std::uint16_t width =
        static_cast<std::uint16_t>(1u << (2 + seed * 2));  // 16 .. 16384
    for (std::size_t i = 0; i < n; ++i) {
      // Mix a skewed core with uniform outliers to get both short and
      // long codes in one table.
      if (rng.below(8) == 0)
        syms.push_back(static_cast<std::uint16_t>(rng.below(width)));
      else
        syms.push_back(static_cast<std::uint16_t>(rng.below(8)));
    }
    const auto enc = huffman::encode(syms);
    EXPECT_EQ(huffman::decode(enc), syms) << "seed " << seed;
    EXPECT_EQ(huffman::decode(enc), huffman::decode_reference(enc))
        << "seed " << seed;
  }
}

TEST(Huffman, TruncatedStreamsMatchReferenceBehavior) {
  // At every truncation point both decoders must agree: same typed error,
  // or the same (zero-filled) symbol output.
  const auto syms = golden_skewed();
  const auto enc = huffman::encode(syms);
  for (std::size_t cut : {enc.size() - 1, enc.size() * 3 / 4, enc.size() / 2,
                          enc.size() / 4, std::size_t{12}, std::size_t{3}}) {
    std::vector<std::uint8_t> trunc(enc.begin(),
                                    enc.begin() + static_cast<long>(cut));
    std::vector<std::uint16_t> a, b;
    bool threw_a = false, threw_b = false;
    try {
      a = huffman::decode(trunc);
    } catch (const Error&) {
      threw_a = true;
    }
    try {
      b = huffman::decode_reference(trunc);
    } catch (const Error&) {
      threw_b = true;
    }
    EXPECT_EQ(threw_a, threw_b) << "cut " << cut;
    if (!threw_a) {
      EXPECT_EQ(a, b) << "cut " << cut;
    }
  }
}

TEST(Huffman, OversubscribedLengthTableRejected) {
  // Hand-built stream whose table declares three 1-bit codes — a
  // non-prefix-free code space that would previously index the canonical
  // ranges out of bounds. The Kraft check must reject it.
  ByteWriter w;
  w.put_varint(1);  // symbol count
  w.put_varint(4);  // alphabet size
  w.put_varint(3);  // three non-zero lengths
  for (std::uint64_t delta : {0u, 1u, 1u}) {
    w.put_varint(delta);
    w.put(static_cast<std::uint8_t>(1));
  }
  w.put_blob(std::vector<std::uint8_t>{0x00});
  const auto stream = w.take();
  try {
    (void)huffman::decode(stream);
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrCode::kCorruptStream);
  }
}

TEST(Lz, RoundtripRandom) {
  Rng rng(5);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  EXPECT_EQ(lz::decompress(lz::compress(data)), data);
}

TEST(Lz, RoundtripRepetitive) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 1000; ++i)
    for (std::uint8_t b : {1, 2, 3, 4, 5, 6, 7}) data.push_back(b);
  const auto enc = lz::compress(data);
  EXPECT_EQ(lz::decompress(enc), data);
  EXPECT_LT(enc.size(), data.size() / 10);  // highly repetitive
}

TEST(Lz, RoundtripLongRun) {
  std::vector<std::uint8_t> data(100000, 0xAB);  // overlapping match case
  const auto enc = lz::compress(data);
  EXPECT_EQ(lz::decompress(enc), data);
  EXPECT_LT(enc.size(), 200u);
}

TEST(Lz, RoundtripEmpty) {
  std::vector<std::uint8_t> data;
  EXPECT_TRUE(lz::decompress(lz::compress(data)).empty());
}

TEST(Lz, RoundtripTiny) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<std::uint8_t> data(n, 9);
    EXPECT_EQ(lz::decompress(lz::compress(data)), data) << "n=" << n;
  }
}

TEST(Lz, RoundtripMixed) {
  // Random segments interleaved with repeats (typical Huffman output).
  Rng rng(6);
  std::vector<std::uint8_t> data;
  for (int seg = 0; seg < 50; ++seg) {
    if (seg % 2) {
      const std::uint8_t b = static_cast<std::uint8_t>(rng.below(256));
      for (int i = 0; i < 200; ++i) data.push_back(b);
    } else {
      for (int i = 0; i < 300; ++i)
        data.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
  }
  EXPECT_EQ(lz::decompress(lz::compress(data)), data);
}

TEST(Lz, MatchesBeyondWindowNotUsed) {
  // Distance > 64 KiB must not be referenced; construct data whose only
  // repeats are 100 KiB apart and check roundtrip.
  Rng rng(7);
  std::vector<std::uint8_t> unique(100000);
  for (auto& b : unique) b = static_cast<std::uint8_t>(rng.below(256));
  std::vector<std::uint8_t> data = unique;
  data.insert(data.end(), unique.begin(), unique.begin() + 1000);
  EXPECT_EQ(lz::decompress(lz::compress(data)), data);
}

/// Bytes that repeat at every distance scale: random literal runs mixed
/// with copies from up to 80 KiB back (past the 64 KiB window), so the
/// matcher's chains, window limit and long matches all see use.
std::vector<std::uint8_t> lz_workload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data;
  data.reserve(n);
  while (data.size() < n) {
    const std::size_t want = n - data.size();
    if (data.size() < 64 || rng.below(3) == 0) {
      const std::size_t run = std::min<std::size_t>(want, 1 + rng.below(40));
      for (std::size_t i = 0; i < run; ++i)
        data.push_back(static_cast<std::uint8_t>(rng.below(256)));
    } else {
      const std::size_t dist = 1 + rng.below(std::min<std::uint64_t>(
                                       data.size(), 80 << 10));
      const std::size_t len = std::min<std::size_t>(want, 4 + rng.below(300));
      for (std::size_t i = 0; i < len; ++i)
        data.push_back(data[data.size() - dist]);
    }
  }
  return data;
}

/// Digests of lz::compress recorded before its hash tables were sized by
/// the input: below, exactly at and past the 64 KiB window.
TEST(Lz, CompressDigestsArePinned) {
  EXPECT_EQ(digest(lz::compress(lz_workload(1 << 10, 41))),
            (Digest{168, 0xf9507770}));
  EXPECT_EQ(digest(lz::compress(lz_workload(64 << 10, 42))),
            (Digest{6826, 0x514e0bfd}));
  EXPECT_EQ(digest(lz::compress(lz_workload(200 << 10, 43))),
            (Digest{23873, 0x4a37cead}));
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{64} << 10,
                              std::size_t{200} << 10}) {
    const auto data = lz_workload(n, 40 + n);
    EXPECT_EQ(lz::decompress(lz::compress(data)), data) << n;
  }
}

TEST(Lz, CorruptStreamThrows) {
  std::vector<std::uint8_t> data(1000, 1);
  auto enc = lz::compress(data);
  enc.resize(3);
  EXPECT_THROW((void)lz::decompress(enc), Error);
}

TEST(QCodec, RoundtripQuantBins) {
  Rng rng(8);
  std::vector<std::uint16_t> codes;
  for (int i = 0; i < 40000; ++i) {
    const double g = rng.gaussian() * 3.0;
    codes.push_back(static_cast<std::uint16_t>(32768 + std::lround(g)));
  }
  const auto enc = qcodec::encode_codes(codes);
  EXPECT_EQ(qcodec::decode_codes(enc), codes);
  // Gaussian bins with sigma 3 have ~3.3 bits of entropy; expect < 1 B/sym.
  EXPECT_LT(enc.size(), codes.size());
}

}  // namespace
}  // namespace aesz
