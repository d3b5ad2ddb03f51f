// Golden-stream format pinning. Each blob below is the hex dump of a
// stream a past build of this repo produced for a deterministic synthetic
// input. The tests assert four things, which together make accidental
// format breaks loud instead of silent:
//
//   1. Today's decoder reads yesterday's bytes: every golden blob —
//      including the pre-checksum LEGACY revisions — decodes cleanly and
//      honors the bound it was encoded under.
//   2. Today's encoder still writes today's pinned bytes: recompressing
//      the same input yields the current golden blob BYTE FOR BYTE. A
//      legitimate format change must bump the stream version and
//      regenerate the blobs in the same commit — this test is the
//      tripwire that forces that conversation.
//   3. A stream stamped with a FUTURE version is refused with the typed
//      kBadHeader error, not misparsed: old readers fail closed against
//      new writers.
//   4. Version is sticky on append: re-opening a legacy AETC artifact
//      keeps writing legacy records, so one artifact never mixes formats.
//
// Blob provenance: the *Legacy blobs are codec-header v2 / AETC v1 /
// AEPR v1 / AEPC v1 (pre-CRC32C, exactly as the checksum PR found them);
// the current blobs are codec-header v3 / AETC v2 / AEPR v2 / AEPC v2.
//
// Regenerating after an intentional change: compress the same inputs
// (value_noise_2d(12,16,3,4.0,123[,0.08*t]) under abs:1e-3, AETC with
// inner SZ2.1 / gop 2 / auto mode, AEPR with inner SZ2.1 / the default
// 3-layer factor-4 ladder, AEPC as parallel:SZ2.1 with chunk_rows 4 and
// one thread) and hex-dump the streams. Never regenerate
// the legacy blobs — they pin bytes already in the wild.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "data/synth.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "service/protocol.hpp"
#include "temporal/aetc.hpp"
#include "temporal/temporal.hpp"
#include "util/bytestream.hpp"

namespace aesz {
namespace {

// ----------------------------------------------------------- legacy pins

// kGoldenSz21Legacy: 383 bytes, codec-header v2 (no checksum field).
constexpr char kGoldenSz21Legacy[] =
    "31325a5302020c1000fca9f1d24d62503ffca9f1d24d62503f04010102000704"
    "04920a2c3700d2028f0321c00188810272f1fe01081d08140803080507010801"
    "0803080308020802080108020411010704070005030107040711040701070308"
    "010801060107010702070304210005090402070107041d020106081b00090300"
    "080f00060701060415050105020601043d00042d00063103060305062100074f"
    "00060b0106085b00097101060467000569000761000447060307070701060429"
    "0102051bb30102070507030702071807070705070407a101674addaa91bb5fd1"
    "0b05c8bac1db7ace70ff44854c21f70970d9b8663a7bbce0f034bef77aef6aab"
    "957e94791adc2ca776f784ee04fab2eff101c3a553240983ac65a17b6206c623"
    "2798feba1a4928c6f2572410aba120fc9169fb9c653d4f36fdb525faaabc54d6"
    "8cc1dcd2425c8ede9630d2df240e219a67356657e2dd316ea3dc84faa4f92f91"
    "0c26872ae829f2718411625dcae68c3b58b57a281b823b0dcf000401010000";

// kGoldenZfpLegacy: 329 bytes, codec-header v2.
constexpr char kGoldenZfpLegacy[] =
    "3150465a02020c1000fca9f1d24d62503ffca9f1d24d62503f00f6ffffff00a8"
    "0259c2741f129cfbc4c6cb8eac74174636231ccfb0441afb3fb26449683e737d"
    "1b807d3f1fe41b2729fae7dee10e315f8faa8459b2b0b3a4e761805c17a65a44"
    "2f25f8d879f800fb199fc79e25abc4f9df267da5de6066387892fa64883abf57"
    "515639e92c59dc81ee527bb8f599692939317e4ff0ff78555c5a763e4b161267"
    "03c6c3ab4e6a857d63b8279fc1275060a64e2431db59b2ccab476f9bf2cb3611"
    "0f26f91a1229f186e46f1af8b31bb36485188008400c88d198346e414c144fee"
    "da7b3e76574ccb2c59377aa08f74207915cb0e82d5daf050c6d851b3e173623a"
    "4b9667e9eaa0240eb19672d09db8240593fd47cc300471d62c59ac0581042df3"
    "a23fa6bc25f232f4e5852101d1ce886596acfac1749087063264b5375ae43537"
    "6236480222d438d11a";

// kGoldenAetcLegacy: 1057 bytes — AETC v1 (no record checksums), inner
// codec-header v2, 3 timesteps, inner SZ2.1, gop 2, auto mode (t=0 and
// t=2 keyframes, t=1 a residual record).
constexpr char kGoldenAetcLegacy[] =
    "414554430105535a322e31020c1000fca9f1d24d62503f02a700fca9f1d24d62"
    "503fff0231325a5302020c1000fca9f1d24d62503ffca9f1d24d62503f040101"
    "0200070404920a2c3700d2028f0321c00188810272f1fe01081d081408030805"
    "0701080108030803080208020801080204110107040700050301070407110407"
    "01070308010801060107010702070304210005090402070107041d020106081b"
    "00090300080f00060701060415050105020601043d00042d0006310306030506"
    "2100074f00060b0106085b000971010604670005690007610004470603070707"
    "010604290102051bb30102070507030702071807070705070407a101674addaa"
    "91bb5fd10b05c8bac1db7ace70ff44854c21f70970d9b8663a7bbce0f034bef7"
    "7aef6aab957e94791adc2ca776f784ee04fab2eff101c3a553240983ac65a17b"
    "6206c6232798feba1a4928c6f2572410aba120fc9169fb9c653d4f36fdb525fa"
    "aabc54d68cc1dcd2425c8ede9630d2df240e219a67356657e2dd316ea3dc84fa"
    "a4f92f910c26872ae829f2718411625dcae68c3b58b57a281b823b0dcf000401"
    "010000a701fca9f1d24d62503fba0131325a5302020c1000fca9f1d24d62503f"
    "fca9f1d24d62503f040101020006030306050d008e0192010dc0018c800215f5"
    "ff01070207010401090601040105010401030701010405010705010501060106"
    "0425605fd2af5e97ba3d4b8d759e2b70ed6660cfad2b1a6505edb3ce7ea5ccca"
    "cffdcf2cd185608e66d23636dff1b48cac129a65c6328bc471720e4413f35dcf"
    "f4efa263bf6b121b197d3b5104a48dbb0bb3c8ce5404b1447501635551c6b294"
    "d3cd02000401010000a700fca9f1d24d62503ffd0231325a5302020c1000fca9"
    "f1d24d62503ffca9f1d24d62503f04010102000704049c0a225100d002a2031d"
    "c0018481027a81ff010817080a08050801080607030802080108010802050700"
    "0605050108010704050512020802070208010701070207010803060107042300"
    "0421010404150004310407010601041700060101060429000527040702060204"
    "3500081b03060205092500060f000a1b00093b000a43000c250504070107030a"
    "0f00060d0007090105059b0100040b00060f0111073f030207040505ae010b07"
    "0f0703070207a401fbe042120d676ade940b27133ac7cbaa0328859f77e1aa4b"
    "c01ca75fe3875f8281f4e5b7ed13260dee38657546584fd61d08ee876ab656c1"
    "707e6d242b3b9c64d094b677f51ceb6a9614fba9a9c938366ba70e1f2851443c"
    "a41c5430735a1101bca93cd0bd8af78d4950fd2ec85837673b65fe71ace5912c"
    "7494bad0fe056ed0611dc988401e0f3de6edb0b33df2360561d386bd5c898fd0"
    "aa399dfe417cd0b753afbc050004010100000300fca9f1d24d62503f188b0301"
    "fca9f1d24d62503fa303c60100fca9f1d24d62503fe904890327000000414554"
    "49";

// kGoldenAeprLegacy: 472 bytes — AEPR v1 (no layer checksums), inner
// codec-header v2, 3 layers, inner SZ2.1, factor-4 ladder (recorded
// bounds 16e-3 / 4e-3 / 1e-3).
constexpr char kGoldenAeprLegacy[] =
    "414550520105535a322e31020c1000fca9f1d24d62503f000000200ca8e53f03"
    "00a801fca9f1d24d62903fa80177fca9f1d24d62703f9f0278fca9f1d24d6250"
    "3f31325a5302020c1000fca9f1d24d62903ffca9f1d24d62903f040101020006"
    "0303520203007d830110c00189800211f7ff0108020801070104050101030901"
    "0304010505015c070107583fdd7b581dd8f6b8de5a60447ca4dfc5693040fa35"
    "cfabf41ee9ef2e70b438411599af68644e97779e3db3659bf90d654aad00692b"
    "c861a77235b31546ff26193dd8fa0c58d8c0ab96dba2f668376fa924f25c0710"
    "86980200040101000031325a5302020c1000fca9f1d24d62703ffca9f1d24d62"
    "703f04010103000906060000000200010049480cc00183800205feff01030102"
    "050137033538fac292f681248f0f230a82cc6c0b2c7dada72115bd846148757c"
    "a68c12c72228000998ee1e2f256fd5d26630d369dbe498509406000401010000"
    "31325a5302020c1000fca9f1d24d62503ffca9f1d24d62503f04010103000906"
    "06000000020101004a490cc00183800205feff0103010205013803362fa5f131"
    "caa831b059579824c5e00f201cdde0614391182f009f28b7580a3ddab8c19f21"
    "be9d2652d2ccc15baff9ce68c7d89ceab542000401010000";

// kGoldenAepcLegacy: 621 bytes — AEPC v1 (no chunk checksums), inner
// SZ2.1 at codec-header v2, chunk_rows 4 (three chunks), one thread.
constexpr char kGoldenAepcLegacy[] =
    "414550430131325a53020c1000fca9f1d24d62503ffca9f1d24d62503f040304"
    "c10104bd0104c70131325a530202041000fca9f1d24d62503ffca9f1d24d6250"
    "3f0401010200090606ba08c201aa03009201a401154084810237a2ff01060306"
    "05060d06070601060606040d0309060105030303060108050805020606060206"
    "02090f0004070702060205020605052504010605050425040406020506470a19"
    "06030603050805040604153701050706240605062e5fc705cf258b024cf01822"
    "f566c364c3b5691db946ff139cba5bcd5ebc1baf092ea1f9655a249051b21d59"
    "b4f40a00040101000031325a530202041000fca9f1d24d62503ffca9f1d24d62"
    "503f0401010200070404f60a7c04009001a2010940a0810236aaff0106040105"
    "030610060e05070c030603050406070605050205040f11010605060106020603"
    "06020502060106060413010506350405060104060903020604071f0006430301"
    "060407373b01050e0605061806180628062e3fcea6811d621d93946ddeb5b88a"
    "4c42fe05b4f64bf4686a218cb702cbdc250e5dd4e40439f3895b6077afdb3105"
    "00040101000031325a530202041000fca9f1d24d62503ffca9f1d24d62503f04"
    "010102000906068e0cfb02d5040098019a012540818302328eff010601061c06"
    "090602060806080607060106070604060306030602060606041d200205020603"
    "060406010604050106010502050205090501050104030403060506041d030306"
    "05041b0406050601054b000405390b0604060f060b069802062d7f26e08803cb"
    "dcbf2b193ce49a4c77ee6cf6f8283f5cdcae9e1ba32f38d1f4ad240229557aca"
    "5544c88032d102000401010000";

// ---------------------------------------------------------- current pins

// kGoldenSz21: 387 bytes, codec-header v3 (whole-payload CRC32C).
constexpr char kGoldenSz21[] =
    "31325a53039fff71b0020c1000fca9f1d24d62503ffca9f1d24d62503f040101"
    "0200070404920a2c3700d2028f0321c00188810272f1fe01081d081408030805"
    "0701080108030803080208020801080204110107040700050301070407110407"
    "01070308010801060107010702070304210005090402070107041d020106081b"
    "00090300080f00060701060415050105020601043d00042d0006310306030506"
    "2100074f00060b0106085b0009710106046700056900076100044706030707"
    "07010604290102051bb30102070507030702071807070705070407a101674add"
    "aa91bb5fd10b05c8bac1db7ace70ff44854c21f70970d9b8663a7bbce0f034be"
    "f77aef6aab957e94791adc2ca776f784ee04fab2eff101c3a553240983ac65a1"
    "7b6206c6232798feba1a4928c6f2572410aba120fc9169fb9c653d4f36fdb525"
    "faaabc54d68cc1dcd2425c8ede9630d2df240e219a67356657e2dd316ea3dc84"
    "faa4f92f910c26872ae829f2718411625dcae68c3b58b57a281b823b0dcf0004"
    "01010000";

// kGoldenZfp: 333 bytes, codec-header v3.
constexpr char kGoldenZfp[] =
    "3150465a0347544a73020c1000fca9f1d24d62503ffca9f1d24d62503f00f6ff"
    "ffff00a80259c2741f129cfbc4c6cb8eac74174636231ccfb0441afb3fb26449"
    "683e737d1b807d3f1fe41b2729fae7dee10e315f8faa8459b2b0b3a4e761805c"
    "17a65a442f25f8d879f800fb199fc79e25abc4f9df267da5de6066387892fa64"
    "883abf57515639e92c59dc81ee527bb8f599692939317e4ff0ff78555c5a763e"
    "4b16126703c6c3ab4e6a857d63b8279fc1275060a64e2431db59b2ccab476f9b"
    "f2cb36110f26f91a1229f186e46f1af8b31bb36485188008400c88d198346e41"
    "4c144feeda7b3e76574ccb2c59377aa08f74207915cb0e82d5daf050c6d851b3"
    "e173623a4b9667e9eaa0240eb19672d09db8240593fd47cc300471d62c59ac05"
    "81042df3a23fa6bc25f232f4e5852101d1ce886596acfac1749087063264b537"
    "5ae435376236480222d438d11a";

// kGoldenSzinterp: 380 bytes, codec-header v3 (no legacy pin: the
// interpolation codec had no byte pin before the v3 header).
constexpr char kGoldenSzinterp[] =
    "50495a5303bd7fe725020c1000fca9f1d24d62503ffca9f1d24d62503f080114"
    "111104b993803e0edcdf3e286a443f1efb8b3e00c102f2022dbf018382026689"
    "fe01086a080108100807070208020805070d0704070f07040704070307020701"
    "0706070507010509000403050406010601070b03050702050b00062701010419"
    "00060100040b0007110004210102061f01050513000617000807020503041702"
    "06030451000959020206052f00055d00040d00066d0701070407020704047500"
    "0501b201030708070207050709074407030714072e071c079c019ffb97edf9ea"
    "fbd0e35dfe3e4816fe57b13ab900e627b7701fbae0642fe8b9129bf0d9cc4a26"
    "45cb9a610eabf432cb1273fbd85dd24627d02da0684ac5c233e8c5d560267f6c"
    "dccc3fcbcf7f8c55b8b8a8272809a9cc6211c23744a625b340ad8b3e83b2094a"
    "61ea605a6453ae88b0db06b9e67ebd6a881ea144272240e800b013ea5cbaa8f3"
    "28efd699411541cc556b53183f31f8611f2256ab2401000401010000";

// kGoldenSzauto: 363 bytes, codec-header v3 (no legacy pin either).
constexpr char kGoldenSzauto[] =
    "55415a53035c389e65020c1000fca9f1d24d62503ffca9f1d24d62503f01c602"
    "a10317c00188810279f1fe010812080b0810080408030804080105010a030805"
    "08020701070507040503010704050500040b040407010606130201060505000b"
    "1d00041700071b000801000723000c19010207150102083f00074f0103041701"
    "06040d01030407000b4500053d00051101030b1300093500057f020506040b03"
    "030707071b00041d00061b000415b5010207030708070d07070705070407a501"
    "f7e472bff47f482a3692227a7889c44d287b33c708055c55c35b2512073f23e8"
    "63679cf17493186808e7f5d686f028b2adf75c415b0dd1e2fe3c81beaca63a13"
    "537f771d325df7b8e5fcfd7104e85b642469f8a3a407d72c787fd804b85a1f5f"
    "678252ca07df345508e55ecbe6e11374876a76d4c74f759c43ad8563288bb248"
    "13aaadecac3e234bc7feab1b4caa6a73c9402b085ca4cc5bd181404df8e4cd64"
    "f122507201000401010000";

// kGoldenAetc: 1081 bytes — AETC v2 (per-record CRC32C), inner
// codec-header v3, same 3 timesteps / SZ2.1 / gop 2 / auto mode.
constexpr char kGoldenAetc[] =
    "414554430205535a322e31020c1000fca9f1d24d62503f02a700fca9f1d24d62"
    "503f830331325a53039fff71b0020c1000fca9f1d24d62503ffca9f1d24d6250"
    "3f0401010200070404920a2c3700d2028f0321c00188810272f1fe01081d0814"
    "0803080507010801080308030802080208010802041101070407000503010704"
    "0711040701070308010801060107010702070304210005090402070107041d02"
    "0106081b00090300080f00060701060415050105020601043d00042d00063103"
    "060305062100074f00060b0106085b0009710106046700056900076100044706"
    "03070707010604290102051bb30102070507030702071807070705070407a101"
    "674addaa91bb5fd10b05c8bac1db7ace70ff44854c21f70970d9b8663a7bbce0"
    "f034bef77aef6aab957e94791adc2ca776f784ee04fab2eff101c3a553240983"
    "ac65a17b6206c6232798feba1a4928c6f2572410aba120fc9169fb9c653d4f36"
    "fdb525faaabc54d68cc1dcd2425c8ede9630d2df240e219a67356657e2dd316e"
    "a3dc84faa4f92f910c26872ae829f2718411625dcae68c3b58b57a281b823b0d"
    "cf000401010000e3ef36e2a701fca9f1d24d62503fbe0131325a5303d8bf1158"
    "020c1000fca9f1d24d62503ffca9f1d24d62503f040101020006030306050d00"
    "8e0192010dc0018c800215f5ff01070207010401090601040105010401030701"
    "0104050107050105010601060425605fd2af5e97ba3d4b8d759e2b70ed6660cf"
    "ad2b1a6505edb3ce7ea5cccacffdcf2cd185608e66d23636dff1b48cac129a65"
    "c6328bc471720e4413f35dcff4efa263bf6b121b197d3b5104a48dbb0bb3c8ce"
    "5404b1447501635551c6b294d3cd02000401010000fd4f087ba700fca9f1d24d"
    "62503f810331325a5303b33daebb020c1000fca9f1d24d62503ffca9f1d24d62"
    "503f04010102000704049c0a225100d002a2031dc0018481027a81ff01081708"
    "0a08050801080607030802080108010802050700060505010801070405051202"
    "0802070208010701070207010803060107042300042101040415000431040701"
    "06010417000601010604290005270407020602043500081b0306020509250006"
    "0f000a1b00093b000a43000c250504070107030a0f00060d0007090105059b01"
    "00040b00060f0111073f030207040505ae010b070f0703070207a401fbe04212"
    "0d676ade940b27133ac7cbaa0328859f77e1aa4bc01ca75fe3875f8281f4e5b7"
    "ed13260dee38657546584fd61d08ee876ab656c1707e6d242b3b9c64d094b677"
    "f51ceb6a9614fba9a9c938366ba70e1f2851443ca41c5430735a1101bca93cd0"
    "bd8af78d4950fd2ec85837673b65fe71ace5912c7494bad0fe056ed0611dc988"
    "401e0f3de6edb0b33df2360561d386bd5c898fd0aa399dfe417cd0b753afbc05"
    "0004010100008c721fd70300fca9f1d24d62503f18930301fca9f1d24d62503f"
    "ab03ce0100fca9f1d24d62503ff90491032700000041455449";

// kGoldenAepr: 496 bytes — AEPR v2 (per-layer CRC32C in the table),
// inner codec-header v3, same 3-layer factor-4 ladder.
constexpr char kGoldenAepr[] =
    "414550520205535a322e31020c1000fca9f1d24d62503f000000200ca8e53f03"
    "00ac01fca9f1d24d62903f9ea648a7ac017bfca9f1d24d62703ff3d5bc5aa702"
    "7cfca9f1d24d62503ffa57497131325a53035d64125e020c1000fca9f1d24d62"
    "903ffca9f1d24d62903f0401010200060303520203007d830110c00189800211"
    "f7ff01080208010701040501010309010304010505015c070107583fdd7b581d"
    "d8f6b8de5a60447ca4dfc5693040fa35cfabf41ee9ef2e70b438411599af6864"
    "4e97779e3db3659bf90d654aad00692bc861a77235b31546ff26193dd8fa0c58"
    "d8c0ab96dba2f668376fa924f25c071086980200040101000031325a53039b22"
    "4cd6020c1000fca9f1d24d62703ffca9f1d24d62703f04010103000906060000"
    "000200010049480cc00183800205feff01030102050137033538fac292f68124"
    "8f0f230a82cc6c0b2c7dada72115bd846148757ca68c12c72228000998ee1e2f"
    "256fd5d26630d369dbe49850940600040101000031325a530365993e2e020c10"
    "00fca9f1d24d62503ffca9f1d24d62503f040101030009060600000002010100"
    "4a490cc00183800205feff0103010205013803362fa5f131caa831b059579824"
    "c5e00f201cdde0614391182f009f28b7580a3ddab8c19f21be9d2652d2ccc15b"
    "aff9ce68c7d89ceab542000401010000";

// kGoldenAepc: 645 bytes — AEPC v2 (per-chunk CRC32C in the table), inner
// SZ2.1 at codec-header v3, chunk_rows 4, one thread.
constexpr char kGoldenAepc[] =
    "414550430231325a53020c1000fca9f1d24d62503ffca9f1d24d62503f040304"
    "c501afc38abf04c1015c4a5a0704cb01f57aa7e231325a5303019972ca020410"
    "00fca9f1d24d62503ffca9f1d24d62503f0401010200090606ba08c201aa0300"
    "9201a401154084810237a2ff0106030605060d06070601060606040d03090601"
    "0503030306010805080502060606020602090f00040707020602050206050525"
    "04010605050425040406020506470a1906030603050805040604153701050706"
    "240605062e5fc705cf258b024cf01822f566c364c3b5691db946ff139cba5bcd"
    "5ebc1baf092ea1f9655a249051b21d59b4f40a00040101000031325a5303f74c"
    "bd2302041000fca9f1d24d62503ffca9f1d24d62503f0401010200070404f60a"
    "7c04009001a2010940a0810236aaff0106040105030610060e05070c03060305"
    "0406070605050205040f11010605060106020603060205020601060604130105"
    "06350405060104060903020604071f0006430301060407373b01050e06050618"
    "06180628062e3fcea6811d621d93946ddeb5b88a4c42fe05b4f64bf4686a218c"
    "b702cbdc250e5dd4e40439f3895b6077afdb310500040101000031325a5303fa"
    "9888d202041000fca9f1d24d62503ffca9f1d24d62503f04010102000906068e"
    "0cfb02d5040098019a012540818302328eff010601061c060906020608060806"
    "07060106070604060306030602060606041d2002050206030604060106040501"
    "06010502050205090501050104030403060506041d03030605041b0406050601"
    "054b000405390b0604060f060b069802062d7f26e08803cbdcbf2b193ce49a4c"
    "77ee6cf6f8283f5cdcae9e1ba32f38d1f4ad240229557aca5544c88032d10200"
    "0401010000";

std::vector<std::uint8_t> from_hex(const char* hex) {
  const std::string s(hex);
  EXPECT_EQ(s.size() % 2, 0u);
  std::vector<std::uint8_t> out;
  out.reserve(s.size() / 2);
  auto nibble = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    return static_cast<std::uint8_t>(c - 'a' + 10);
  };
  for (std::size_t i = 0; i + 1 < s.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(nibble(s[i]) << 4 | nibble(s[i + 1])));
  return out;
}

// The exact inputs the blobs were generated from.
Field golden_field(double tphase = 0.0) {
  return synth::value_noise_2d(12, 16, 3, 4.0, /*seed=*/123, tphase);
}

constexpr double kEb = 1e-3;

struct SnapshotCase {
  const char* codec;
  const char* legacy_hex;  // codec-header v2, decode-only; null if none
  const char* hex;         // codec-header v3, byte-pinned
};

class GoldenSnapshot : public ::testing::TestWithParam<SnapshotCase> {};

TEST_P(GoldenSnapshot, YesterdaysBytesStillDecodeInBound) {
  const Field f = golden_field();
  auto codec = CodecRegistry::instance().create(GetParam().codec, 2).value();
  for (const char* hex : {GetParam().legacy_hex, GetParam().hex}) {
    if (hex == nullptr) continue;
    const auto golden = from_hex(hex);
    auto recon = codec->decompress(golden);
    ASSERT_TRUE(recon.ok()) << recon.status().str();
    ASSERT_EQ(recon->dims(), f.dims());
    EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
              kEb * (1 + 1e-9));
  }
}

TEST_P(GoldenSnapshot, TodaysEncoderReproducesTheBlobByteForByte) {
  const auto golden = from_hex(GetParam().hex);
  auto codec = CodecRegistry::instance().create(GetParam().codec, 2).value();
  const auto now = codec->compress(golden_field(), ErrorBound::Abs(kEb));
  ASSERT_EQ(now.size(), golden.size())
      << GetParam().codec
      << " stream size changed — format break without a version bump?";
  EXPECT_EQ(now, golden);
}

TEST_P(GoldenSnapshot, FutureVersionIsRefusedTyped) {
  auto stream = from_hex(GetParam().hex);
  ASSERT_GT(stream.size(), 5u);
  stream[4] = 0x63;  // all codecs put the format version at byte 4
  auto codec = CodecRegistry::instance().create(GetParam().codec, 2).value();
  auto recon = codec->decompress(stream);
  ASSERT_FALSE(recon.ok());
  EXPECT_EQ(recon.status().code, ErrCode::kBadHeader) << recon.status().str();
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, GoldenSnapshot,
    ::testing::Values(
        SnapshotCase{"SZ2.1", kGoldenSz21Legacy, kGoldenSz21},
        SnapshotCase{"ZFP", kGoldenZfpLegacy, kGoldenZfp},
        SnapshotCase{"SZinterp", nullptr, kGoldenSzinterp},
        SnapshotCase{"SZauto", nullptr, kGoldenSzauto}),
    [](const auto& info) {
      std::string n = info.param.codec;
      for (char& c : n)
        if (c == '.') c = '_';
      return n;
    });

TEST(GoldenAetc, YesterdaysArtifactStillDecodesInBound) {
  for (const char* hex : {kGoldenAetcLegacy, kGoldenAetc}) {
    const auto golden = from_hex(hex);
    auto reader = temporal::TemporalReader::open(golden);
    ASSERT_TRUE(reader.ok()) << reader.status().str();
    ASSERT_EQ((*reader)->timesteps(), 3u);
    EXPECT_EQ((*reader)->info().inner, "SZ2.1");
    EXPECT_EQ((*reader)->info().gop, 2u);
    // The auto-mode decision is part of the pinned format: t=1 residual.
    EXPECT_EQ((*reader)->info().records[0].mode, temporal::kModeIntra);
    EXPECT_EQ((*reader)->info().records[1].mode, temporal::kModeResidual);
    EXPECT_EQ((*reader)->info().records[2].mode, temporal::kModeIntra);
    for (std::size_t t = 0; t < 3; ++t) {
      const Field orig = golden_field(0.08 * static_cast<double>(t));
      auto recon = (*reader)->read(t);
      ASSERT_TRUE(recon.ok()) << "t=" << t << ": " << recon.status().str();
      EXPECT_LE(metrics::max_abs_err(orig.values(), recon->values()),
                kEb * (1 + 1e-9))
          << "t=" << t;
    }
  }
}

TEST(GoldenAetc, TodaysWriterReproducesTheArtifactByteForByte) {
  const auto golden = from_hex(kGoldenAetc);
  temporal::TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 2;
  opt.mode = temporal::Mode::kAuto;
  temporal::TemporalWriter w(golden_field().dims(), ErrorBound::Abs(kEb),
                             std::move(opt));
  for (std::size_t t = 0; t < 3; ++t)
    w.append(golden_field(0.08 * static_cast<double>(t)));
  EXPECT_EQ(w.bytes(), golden);
}

TEST(GoldenAetc, ReopenAppendExtendsTheGoldenArtifactDeterministically) {
  // Appending t=3 to the committed artifact must equal building the
  // 4-step stream from scratch — the reopened encoder's reference chain
  // restores to exactly the state the original writer was left in.
  const auto golden = from_hex(kGoldenAetc);
  temporal::TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 2;
  opt.mode = temporal::Mode::kAuto;
  auto reopened = temporal::TemporalWriter::open(golden, opt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().str();
  (*reopened)->append(golden_field(0.08 * 3));

  temporal::TemporalWriter::Options opt2;
  opt2.inner = "SZ2.1";
  opt2.gop = 2;
  opt2.mode = temporal::Mode::kAuto;
  temporal::TemporalWriter scratch(golden_field().dims(),
                                   ErrorBound::Abs(kEb), std::move(opt2));
  for (std::size_t t = 0; t < 4; ++t)
    scratch.append(golden_field(0.08 * static_cast<double>(t)));
  EXPECT_EQ((*reopened)->bytes(), scratch.bytes());
}

TEST(GoldenAetc, ReopenedLegacyArtifactKeepsWritingLegacyRecords) {
  // Version is sticky: appending to the committed v1 artifact must yield
  // a stream that still parses as v1 — one artifact, one record format
  // (a v1-era reader can keep consuming a file a v2-era writer extended).
  const auto golden = from_hex(kGoldenAetcLegacy);
  temporal::TemporalWriter::Options opt;
  opt.mode = temporal::Mode::kAuto;
  auto reopened = temporal::TemporalWriter::open(golden, opt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().str();
  (*reopened)->append(golden_field(0.08 * 3));
  const auto extended = (*reopened)->bytes();

  auto info = temporal::read_stream(extended);
  ASSERT_TRUE(info.ok()) << info.status().str();
  EXPECT_EQ(info->version, temporal::kFormatVersionV1);
  ASSERT_EQ(info->records.size(), 4u);
  auto reader = temporal::TemporalReader::open(extended);
  ASSERT_TRUE(reader.ok()) << reader.status().str();
  const Field orig = golden_field(0.08 * 3);
  auto recon = (*reader)->read(3);
  ASSERT_TRUE(recon.ok()) << recon.status().str();
  EXPECT_LE(metrics::max_abs_err(orig.values(), recon->values()),
            kEb * (1 + 1e-9));
}

TEST(GoldenAetc, FutureContainerVersionIsRefusedTyped) {
  auto stream = from_hex(kGoldenAetc);
  stream[4] = 0x63;
  auto reader = temporal::TemporalReader::open(stream);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code, ErrCode::kBadHeader)
      << reader.status().str();
  // The appender path refuses identically.
  auto writer = temporal::TemporalWriter::open(stream);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code, ErrCode::kBadHeader);
}

TEST(GoldenAepr, EveryLayerPrefixOfYesterdaysArtifactDecodesInItsBound) {
  const Field f = golden_field();
  for (const char* hex : {kGoldenAeprLegacy, kGoldenAepr}) {
    const auto golden = from_hex(hex);
    auto info = progressive::read_stream(golden);
    ASSERT_TRUE(info.ok()) << info.status().str();
    ASSERT_EQ(info->present, 3u);
    // The ladder's recorded bounds are part of the pinned format, and the
    // final rung is exactly the non-progressive guarantee.
    EXPECT_DOUBLE_EQ(info->layers[0].abs_eb, 16e-3);
    EXPECT_DOUBLE_EQ(info->layers[1].abs_eb, 4e-3);
    EXPECT_DOUBLE_EQ(info->layers[2].abs_eb, kEb);
    for (std::size_t k = 0; k < 3; ++k) {
      const auto prefix = std::span<const std::uint8_t>(golden).first(
          progressive::prefix_bytes(*info, k));
      auto reader = progressive::ProgressiveReader::open(prefix);
      ASSERT_TRUE(reader.ok()) << "k=" << k << ": " << reader.status().str();
      auto recon = (*reader)->read(k);
      ASSERT_TRUE(recon.ok()) << "k=" << k << ": " << recon.status().str();
      EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
                info->layers[k].abs_eb * (1 + 1e-9))
          << "k=" << k;
    }
  }
}

TEST(GoldenAepr, TodaysWriterReproducesTheArtifactByteForByte) {
  const auto golden = from_hex(kGoldenAepr);
  progressive::ProgressiveWriter::Options opt;
  opt.inner = "SZ2.1";
  progressive::ProgressiveWriter w(std::move(opt));
  const auto now = w.encode(golden_field(), ErrorBound::Abs(kEb));
  ASSERT_EQ(now.size(), golden.size())
      << "AEPR stream size changed — format break without a version bump?";
  EXPECT_EQ(now, golden);
}

TEST(GoldenAepr, FutureContainerVersionIsRefusedTyped) {
  auto stream = from_hex(kGoldenAepr);
  stream[4] = 0x63;  // AEPR puts the format version at byte 4 too
  auto info = progressive::read_stream(stream);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code, ErrCode::kBadHeader) << info.status().str();
  // Both retrieval paths refuse identically.
  auto reader = progressive::ProgressiveReader::open(stream);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code, ErrCode::kBadHeader);
  auto cut = progressive::truncate_to_bytes(stream, stream.size());
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code, ErrCode::kBadHeader);
}

// The AEPC pins: parallel:SZ2.1 with a fixed chunk geometry (chunk_rows
// 4 over the 12-row field = three chunks) and one thread.
pipeline::ParallelCompressor golden_chunked() {
  pipeline::ParallelCompressor::Options opt;
  opt.inner = "SZ2.1";
  opt.threads = 1;
  opt.chunk_rows = 4;
  return pipeline::ParallelCompressor(opt, /*rank_hint=*/2);
}

TEST(GoldenAepc, YesterdaysContainerStillDecodesInBound) {
  const Field f = golden_field();
  auto codec = CodecRegistry::instance().create("parallel:SZ2.1", 2).value();
  for (const char* hex : {kGoldenAepcLegacy, kGoldenAepc}) {
    const auto golden = from_hex(hex);
    auto recon = codec->decompress(golden);
    ASSERT_TRUE(recon.ok()) << recon.status().str();
    ASSERT_EQ(recon->dims(), f.dims());
    EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
              kEb * (1 + 1e-9));
  }
}

TEST(GoldenAepc, TodaysWriterReproducesTheContainerByteForByte) {
  const auto golden = from_hex(kGoldenAepc);
  auto chunked = golden_chunked();
  const auto now = chunked.compress(golden_field(), ErrorBound::Abs(kEb));
  ASSERT_EQ(now.size(), golden.size())
      << "AEPC stream size changed — format break without a version bump?";
  EXPECT_EQ(now, golden);
}

TEST(GoldenAepc, FutureContainerVersionIsRefusedTyped) {
  auto stream = from_hex(kGoldenAepc);
  stream[4] = 0x63;  // AEPC puts the format version at byte 4 too
  auto codec = CodecRegistry::instance().create("parallel:SZ2.1", 2).value();
  auto recon = codec->decompress(stream);
  ASSERT_FALSE(recon.ok());
  EXPECT_EQ(recon.status().code, ErrCode::kBadHeader) << recon.status().str();
  // identify() refuses it identically: the version is part of the peek.
  auto id = CodecRegistry::instance().identify(stream);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code, ErrCode::kBadHeader);
}

/// Stats-frame wire compatibility across the observability PR: the frame
/// layout a pre-observability peer speaks (magic, version 1, op 0x84,
/// varint row count, then name-blob/varint-value rows) is pinned here
/// byte for byte. Today's server extends the stats SURFACE with histogram
/// summary rows, but each row keeps this exact shape — so old clients
/// parse new frames and new clients parse old frames.
TEST(GoldenProtocol, PreObservabilityStatsFrameLayoutIsPinned) {
  const auto name_bytes = [](const char* s) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s), std::strlen(s));
  };
  ByteWriter w;
  w.put(service::kFrameMagic);
  w.put(service::kProtocolVersion);
  w.put(std::uint8_t{0x84});  // kStatsResponse
  w.put_varint(std::uint64_t{2});
  w.put_blob(name_bytes("requests"));
  w.put_varint(std::uint64_t{3});
  w.put_blob(name_bytes("bytes_in"));
  w.put_varint(std::uint64_t{12345});
  const auto old_frame = w.take();

  // Today's parser reads yesterday's frame...
  const auto parsed = service::parse_stats_response(old_frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status().str();
  EXPECT_EQ(parsed->get("requests"), 3u);
  EXPECT_EQ(parsed->get("bytes_in"), 12345u);

  // ...and today's encoder still writes exactly these bytes for the same
  // rows, so yesterday's parser reads today's frames too.
  service::StatsResponse s;
  s.counters = {{"requests", 3}, {"bytes_in", 12345}};
  EXPECT_EQ(service::encode_stats_response(s), old_frame);
}

}  // namespace
}  // namespace aesz
