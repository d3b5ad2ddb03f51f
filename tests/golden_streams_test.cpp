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
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/aesz.hpp"
#include "data/synth.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "service/protocol.hpp"
#include "sz/common.hpp"
#include "sz/sz21.hpp"
#include "sz/szauto.hpp"
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

// ------------------------------------------- rank-1/3 and AE-SZ block pins
//
// The 2-D snapshots above leave the rank-1 and rank-3 block walks, SZauto's
// second-order stencil and AE-SZ's Lorenzo/mean residual path unpinned.
// The inputs below leave partial edge blocks on every blocked axis.
// Regenerating: compress each input under abs:1e-3 with the registry
// codec of its rank (AE-SZ: lorenzo_only_aesz()) and hex-dump the stream.

// kGoldenSz21Rank1: 291 bytes
constexpr char kGoldenSz21Rank1[] =
    "31325a530316b98fc001ac0200fca9f1d24d62503ffca9f1d24d62503f040101"
    "0400070404f218f90700f20188020eac02b7830229ecff010701070108070100"
    "040b000a010306010505030006010304010305010104050d00061b0004230306"
    "020604090205080401b2010608910307ab016f4a724928398d711cc318c2300c"
    "8fc7e376bb9c4fe7cbf53e84988a4172778924084ade5aeff3b26efbfedab76d"
    "5d97676f4e18409292aa57778994b7a9f7de7babcd5d4031332349c9dd5d1209"
    "cb710c21a60c5275eaf3739ea756dd25120048822825a714538a29a59c4a2906"
    "90244118cccccc40afb556170810240912849592722ac5400225effbbeadcb3c"
    "55a1e49ce21886fbf57cfafa381e0e87e3e7f7e51e32dbf2faf9fdfb07000401"
    "010000";
// kGoldenSz21Rank3: 840 bytes
constexpr char kGoldenSz21Rank3[] =
    "31325a53035ce717490307090a00fca9f1d24d62503ffca9f1d24d62503f0401"
    "01f0001d1a1ae0080094049e019009009003d0038e12003403c20f00a004e803"
    "008006fc061ef604fb8202a801eefe01090a09070901090409090901090d0904"
    "09010902040306080109010905050d0206080411050109030802051104010801"
    "0805210004230005030402080107061500050500060100041101070501030801"
    "07052d000611000815000e01050601080106070100040d000c0101050f0f0004"
    "2900042300060300062d00066700080700060500089501000c0500048b010009"
    "0f0005d7010005e9010008cb010007e9010004af01020902040d00070700060f"
    "0004030103050907030906090e090a0511af040509140901090f091209c20109"
    "a004ffa1f841e45815215dc6133fc549c9579b0868905c60a5704adfe8caee18"
    "0c1e7cbfd443aff7858912eeb7ab1a9b708e3db20620f7f7231d7f2b8d6753b1"
    "1919f08313bda59f382719c5ba3d955138cf78d964b1c92bdf362f445cbb1c41"
    "11bee5f611666e17ddaf045cd74552c851b0d1e27c6bad0ad5d42406018d8659"
    "b040773831a4888b1a859618cb04b41aa05392a0f9824512d7917eaf348f7e28"
    "21ced68d1647bdd23450869492dcfddc3528eaf74cbfa022004329393d64cefe"
    "80b19de16dce7d92c40a6dd5ec4a4394338d79feeb8d25f5789d957c2fd74d5b"
    "b3d571db3e8e2d453fcb47a7faa077e12eeca0e9209b0b259d6313dc4402a6f6"
    "06e7b4314b11436a921d01241dc3640e06656dfae6385c05144bb09554b72072"
    "8a9466d999bad9a9b4790ec2086524e6759855c4628ea681b41c4d7d0cdfd9ab"
    "419766b7ff842e76736470d73c811067e7f2bcb5d59f5c058a757866e09326a8"
    "f794dfc3a7cf555e3f453c014302bc10ade5ecc1e11994e7653d96277ab30fd5"
    "c5820d09016dcde07045a56f159ab520460912a6eb3c058bec901e862f4b510a"
    "8108ed1fac021b0b18282832e7818ffed56f48b47f5671ab18ff468d91593a8e"
    "86e4721a4f054825e58af8e82db3871385989a39dcb7802d233809d4810c74ca"
    "7270d967878950bb9759a915dc7ab95a95f0d1fa173d38a614e23d77d31e03ad"
    "4c524c350cd60a8f9f87bd5709bf376bc54707a7361e2ce6950901eecb2f9870"
    "c90b000401010000";
// kGoldenSzautoRank1Order1: 298 bytes
constexpr char kGoldenSzautoRank1Order1[] =
    "55415a5303e3fd9d5001ac0200fca9f1d24d62503ffca9f1d24d62503f018502"
    "970212ac02c382022be3fd01080108020801070106050300040500060b000413"
    "000401070803080108af02061c07050105010601040501010307070004110004"
    "17000607000425bb0108850207b5016ff33597eda7d6b2a6d14d21dcb1087081"
    "30139d490418a000f4a2a666b735d7ad96bbab309dc2fc7a4daf8f10628c9ff3"
    "344f733c9140fd5edbbeb7fa9dcc54ce4b8ccbc2bdaa998dee29251f93bba7d1"
    "dccdec6aaaaa03146a7a3503a41740dd6f6bae6dff3d8ebdd5edb1b5761c7fc7"
    "ff7eb4f62cab01671655b5ab2a805e4444b8171148cf4444d4b1305317630821"
    "7cc565611e6066966e3997521e39e7ec363011c9a06e29d767dbb6b28e0a0853"
    "47c4820b000401010000";
// kGoldenSzautoRank1Order2: 155 bytes
constexpr char kGoldenSzautoRank1Order2[] =
    "55415a530378bb776201ac0200fca9f1d24d62503ffca9f1d24d62503f027777"
    "3eac02e6880207f1ff01040d030103010201020103e308045f7f986559c12ccb"
    "0a46db158cb62b60d6ae60b45dc1685600b3ac00665901302b0098958e689605"
    "1b309615c02c2b0066a5239a6505ccb202986505c0ac5d319a15c06801c02c2b"
    "18cd0a60961500b3763562bb02464b47c476042400000401010000";
// kGoldenSzautoRank3Order1: 832 bytes
constexpr char kGoldenSzautoRank3Order1[] =
    "55415a53039ca423fd0307090a00fca9f1d24d62503ffca9f1d24d62503f019a"
    "06920722f604fb8202b001d4fe0109190901090a09070901090409090901080d"
    "0904090109020403030801080409130309010802090608030901090308020905"
    "0901040103080108062100070700140105070109010708010202070511000413"
    "0006070012010308010607010107090900060b01050b0f000813000823000469"
    "00040d000a450008690004070005a10100070900040500050d00058b0100050f"
    "010204e7010006cf010005030004f901040309010704d3010102040d00041300"
    "072500041b000425000489020902080909020907090504b5020005b102000409"
    "0004190004cb02b10402090d091209c20109a604ffc3a15dff91a144fa4b0926"
    "ccfa03085d1f76918c107fbac6588fafc0a04a30049a6d762f64ebb4e55272a1"
    "da9e5cd7a3182f4e56e703ea9eef3a4f0f699be5f0f9f49a0f6a147e7bcf7630"
    "448084c39e97739dd452817d77b9d787e731d79c7cb46290153a62a205e713cb"
    "bdcc40d8ba94e8a97d3ed4f2b7586d32b61a1e8d056322b0a17301cf46e2188c"
    "e3ca3fe8d4f4149b5995410fdd175f04520644c31e7670b43bff755f3c3c8631"
    "829eabf4865ff80ceaa4c4d8dbd1dd9a6d3641a30e23519bb9f071a5c16fce6b"
    "0cbdc1e024ee8c30a391372707de2a1c1f3d03e47ee9d7f00927f5adef74f1d9"
    "43d8ae0b946bfeda48747a0322370791eda2db7c695ab16478824b9190c47b65"
    "bddef43cb318a7470057521d6898a0822850288806220301b72e00964b4b5639"
    "504e193cc328bb23c7109615b52091a466a816130acf2ae3577218af90880d2a"
    "817c3493001449e3b4eca654812baa1d9ce2f4e4088c67244183fb6e0a85099a"
    "8e05a7f0eee4dd10e215e55bd91ed83b3b81a940b9ad33989b9054e4551e3635"
    "55126dd272bdb152ac35db777d3a122584384cea11e64eea623850d020da651f"
    "df22fd129f4b011421c5098a0282245357b335b3df49953d28c909ab894e06d5"
    "349684782e281fafbc2ec68c0787bfff111dc10a6479bf7440dcf63b114053c0"
    "d2b637eae9caac9db3fdec6af9b01e42838e5028c614d2e8b833af46d8ad106e"
    "ea6ff874df11b2d6b5fe28ef341af6b11b635d5176f1b10afb01000401010000";
// kGoldenSzautoRank3Order2: 132 bytes
constexpr char kGoldenSzautoRank3Order2[] =
    "55415a5303134ea4490307090a00fca9f1d24d62503ffca9f1d24d62503f025f"
    "7b12f6048c80020780800201010502050202020404010264000a00273c00aaaa"
    "525595aaaa5455a5aa2a5555a9aa4a55551f80aaaa0420000108400002104000"
    "545525070b038000060c1a06c00250559500080e063800aaaa1280080e000004"
    "01010000";
// kGoldenAeszLorenzoRank2: 560 bytes
constexpr char kGoldenAeszLorenzoRank2[] =
    "5a5345410334ebd0b202141400fca9f1d24d62503ffca9f1d24d62503f1a8ae0"
    "3debb7623f2cf720f29a25f50608040603030100000016d91c3649672e453f00"
    "07040400010000000401010000080505010000803e00d303ca04229003918102"
    "820198ff0109020903090a09050802080d080208010802070208010702040b05"
    "0701070108040100060b00050500050f01030b0b000433020106060b00051300"
    "06170008090006190004490507010601060b0900060b0103070b000827000609"
    "030702050709000a3100089101000601000c63000a8d01010705bd0100050d01"
    "0306990102080406990102080305ab01000605040207030806f1010703082908"
    "bb02001700a302bf7f073bd9edf645f432ed0d2453e4cfdd17a563a8c7255419"
    "31b1c12c2f25d3d1b05a8fa86b20b2b8715af0f78ab5f3c4abb570322a4a9189"
    "ff918e06d65ffe39f16aa74dcbb42ca3759cf4add9e8e2d02095bd0f07b8870a"
    "1d3276cac96eea88448b31665a72161a5e71b732460c5df6d17aa2735b55d9d5"
    "6533976beac590ad3acfd4744a2cd8f859972c687983d712f172e0c31c231ae2"
    "ef2c69bad50c99f4d1bc99f1abce298fd3cc2b726cc6311e23f1e0f1fc6c8987"
    "c92a158efb8cced91d2569a08b6ca6ebe975864e59ad9a70f3d48cbf5e09925f"
    "c90a230d9dbe19de9b5187f36f5b19cf94923b2c6defb8fab6be8bdcbeecce1f"
    "ba1f577889f2eeb6a9e73ba3dfee29b0572f9729c7bfd4c1f559bb254e0494c5"
    "917023c80543ab75c60e000401010000";
// kGoldenAeszLorenzoRank3: 801 bytes
constexpr char kGoldenAeszLorenzoRank3[] =
    "5a5345410310271d86030a0a0a00fca9f1d24d62503ffca9f1d24d62503fd8b2"
    "313e47126c3f8fe7ede64c34ea45080405020201400016070434d327473e3f00"
    "070404000100000004010100000c0909020000803e26ed093f00c005d5062fe8"
    "07f181029c01cbfe010a160a070a020a190a010a090a050a0b0a0709050a0108"
    "060a020a020a030a020a010a0109060500070300040508090108030901090206"
    "130708020a02080108071b040a020803082f000601010804230009030107052b"
    "03070107050500060b07090107010601060505000603030701010b2500040100"
    "061500063100040b00040700061b00046100047d000597010006070004810101"
    "02080d0006c50100060100072301020509010204230005cb0105040a010a0308"
    "e70100051900051d1c0a040a040a0309090a010a150a0e0a020a1e0a160a2d0a"
    "01099204003f00d203fffed2aa6f9c3cb414562be3975e5d2dbd599a89c3da95"
    "c9cd687bf9a92bc757ea8f44f5423fadb59bd5bb87efcdf6c687ee4d7fb274e8"
    "7c3e9db83ef179544f56662ba156278c670a978b1f46e7ee8e54c2e8a3b55ce1"
    "f0e8ef633b85f617c5959e3fc6a7d367d632a3f1422b2eb6d53ecd06c9741a2d"
    "c4f1dfb9eec1e66626f82b3fd20ff71f29bd7263fdabf79ffd72ad75eaf44272"
    "a11cdd488e95e7c61acd7da152f7d66ef3bfc79e5e4eba47e79edbecbedbdef9"
    "299d0b1a69a3112f06ada546546cd41fed7d7fbd55cad533ab5b83c2db51edf1"
    "ed5bedfed6fe4cb87e265fc94f96b2edeee9f660b6585faa87d538a83e78a7fe"
    "5b327ef9ad6b2f4feef9f3e4d091302a34735174bebf7231ad2ca5b5fb23078e"
    "f66feeaec6616bfbc48162f9f9ceb9b3c5cc62e5895f77f6f5afaed4e6d3a41c"
    "cd67e360b0d9cdee7d61feeba9c5538db9ad0fd673a552b33de83cb47ce1b3d2"
    "e0f6dab773b95c7f6338fb4f7e6a263eb82777330982a927a35eac52ab36bac6"
    "e2d9b0f3f39dd67b3353d5f6ed6faacae59aa45a7ef8c4eac7c7cf3c50fe61e1"
    "ffd1178b2f25d31b9dc5b4d74b82e8d8487bb81b0c8f0ced767fbc94ffee8dec"
    "d5c26ba5c660abf34e753e695f6bc957265e0ff6a6c1c54c7df52c0004010100"
    "00";

// 300 points: two full 128-point SZ2.1 blocks and a 44-point edge block.
// Noise on a ramp, so regression beats Lorenzo on some blocks.
Field noisy_ramp_1d() {
  const Field noise = synth::value_noise_2d(1, 300, 3, 6.0, /*seed=*/321);
  Field f(Dims(300));
  for (std::size_t i = 0; i < f.size(); ++i)
    f.at(i) = noise.at(i) + 0.004f * static_cast<float>(i);
  return f;
}

// 7x9x10: every axis ends in a partial 6-point SZ2.1 block.
Field noisy_ramp_3d() {
  const Field noise = synth::value_noise_3d(7, 9, 10, 2, 3.0, /*seed=*/322);
  Field f(Dims(7, 9, 10));
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 9; ++j)
      for (std::size_t k = 0; k < 10; ++k)
        f.at(lin3(f.dims(), i, j, k)) =
            noise.at(lin3(f.dims(), i, j, k)) +
            0.03f * static_cast<float>(i + 2 * j + k);
  return f;
}

// Smooth polynomials with a little noise: SZauto's second-order stencil
// wins.
Field bowl_1d() {
  const Field noise = synth::value_noise_2d(1, 300, 2, 8.0, /*seed=*/323);
  Field f(Dims(300));
  for (std::size_t i = 0; i < f.size(); ++i) {
    const float x = static_cast<float>(i) - 150.0f;
    f.at(i) = 1e-4f * x * x + 1e-3f * noise.at(i);
  }
  return f;
}

Field bowl_3d() {
  const Field noise = synth::value_noise_3d(7, 9, 10, 2, 3.0, /*seed=*/324);
  Field f(Dims(7, 9, 10));
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 9; ++j)
      for (std::size_t k = 0; k < 10; ++k) {
        const auto x = static_cast<float>(i), y = static_cast<float>(j),
                   z = static_cast<float>(k);
        f.at(lin3(f.dims(), i, j, k)) =
            0.01f * x * y * z + 0.002f * x * x +
            1e-5f * noise.at(lin3(f.dims(), i, j, k));
      }
  return f;
}

// Pseudo-random jitter on noise: SZauto's first-order stencil wins.
Field rough_1d() {
  const Field noise = synth::value_noise_2d(1, 300, 3, 6.0, /*seed=*/327);
  Field f(Dims(300));
  for (std::size_t i = 0; i < f.size(); ++i)
    f.at(i) = noise.at(i) + 0.05f * static_cast<float>(i * 7919 % 13);
  return f;
}

// Noise with one constant 8^rank patch (block 0 of the AE-SZ pins' 8-point
// split), so both mean and Lorenzo blocks occur; 20 and 10 points per axis
// leave partial edge blocks.
Field patched_2d() {
  Field f = synth::value_noise_2d(20, 20, 3, 4.0, /*seed=*/325);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) f.at(lin2(f.dims(), i, j)) = 0.25f;
  return f;
}

Field patched_3d() {
  Field f = synth::value_noise_3d(10, 10, 10, 2, 3.0, /*seed=*/326);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      for (std::size_t k = 0; k < 8; ++k)
        f.at(lin3(f.dims(), i, j, k)) = 0.25f;
  return f;
}

// An untrained AE-SZ restricted to Lorenzo and mean blocks: its residual
// bytes never depend on network outputs.
std::unique_ptr<AESZ> lorenzo_only_aesz(int rank) {
  AESZ::Options opt;
  opt.ae.rank = rank;
  opt.ae.block = 8;
  opt.ae.latent = 4;
  opt.ae.channels = {4};
  opt.policy = AESZ::Policy::kLorenzoOnly;
  return std::make_unique<AESZ>(opt, /*seed=*/11);
}

// Network-dependent fields of an AE-SZ stream, zeroed: the CRC (bytes
// 5-8), the weight fingerprint, and the latent blob's bound (its first 8
// bytes, a range of the encoder's latents). Initialisation and GEMM
// rounding may differ across machines; every other byte may not.
std::vector<std::uint8_t> mask_network_fields(std::vector<std::uint8_t> s) {
  ByteReader r(s);
  EXPECT_TRUE(sz::read_header(r, AESZ::kStreamMagic).ok());
  r.get<float>();
  r.get<float>();
  const std::size_t fp_at = r.pos();
  r.get<std::uint64_t>();
  r.get_varint();
  r.get_varint();
  r.get_blob();  // block flags
  const auto latents = r.get_blob();
  const auto latent_at = static_cast<std::size_t>(latents.data() - s.data());
  std::memset(s.data() + sz::kCrcOffset, 0, 4);
  std::memset(s.data() + fp_at, 0, 8);
  std::memset(s.data() + latent_at, 0, 8);
  return s;
}

struct RankPinCase {
  const char* name;
  const char* codec;
  Field (*input)();
  const char* hex;
};

class GoldenRankPin : public ::testing::TestWithParam<RankPinCase> {};

TEST_P(GoldenRankPin, TodaysEncoderReproducesTheBlobByteForByte) {
  const Field f = GetParam().input();
  auto codec =
      CodecRegistry::instance().create(GetParam().codec, f.dims().rank).value();
  EXPECT_EQ(codec->compress(f, ErrorBound::Abs(kEb)), from_hex(GetParam().hex));
}

TEST_P(GoldenRankPin, YesterdaysBytesStillDecodeInBound) {
  const Field f = GetParam().input();
  auto codec =
      CodecRegistry::instance().create(GetParam().codec, f.dims().rank).value();
  auto recon = codec->decompress(from_hex(GetParam().hex));
  ASSERT_TRUE(recon.ok()) << recon.status().str();
  ASSERT_EQ(recon->dims(), f.dims());
  EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
            kEb * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, GoldenRankPin,
    ::testing::Values(
        RankPinCase{"Sz21Rank1", "SZ2.1", noisy_ramp_1d, kGoldenSz21Rank1},
        RankPinCase{"Sz21Rank3", "SZ2.1", noisy_ramp_3d, kGoldenSz21Rank3},
        RankPinCase{"SzautoRank1Order1", "SZauto", rough_1d,
                    kGoldenSzautoRank1Order1},
        RankPinCase{"SzautoRank1Order2", "SZauto", bowl_1d,
                    kGoldenSzautoRank1Order2},
        RankPinCase{"SzautoRank3Order1", "SZauto", noisy_ramp_3d,
                    kGoldenSzautoRank3Order1},
        RankPinCase{"SzautoRank3Order2", "SZauto", bowl_3d,
                    kGoldenSzautoRank3Order2}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(GoldenRankPins, Sz21PinsHoldRegressionBlocks) {
  SZ21::Options lorenzo_only;
  lorenzo_only.enable_regression = false;
  const std::pair<const char*, Field (*)()> pins[] = {
      {kGoldenSz21Rank1, noisy_ramp_1d}, {kGoldenSz21Rank3, noisy_ramp_3d}};
  for (const auto& [hex, input] : pins)
    EXPECT_NE(SZ21(lorenzo_only).compress(input(), ErrorBound::Abs(kEb)),
              from_hex(hex));
}

TEST(GoldenRankPins, SzautoPinsCoverBothStencilOrders) {
  const std::pair<const char*, int> pins[] = {
      {kGoldenSzautoRank1Order1, 1}, {kGoldenSzautoRank1Order2, 2},
      {kGoldenSzautoRank3Order1, 1}, {kGoldenSzautoRank3Order2, 2}};
  for (const auto& [hex, order] : pins) {
    const auto stream = from_hex(hex);
    ByteReader r(stream);
    ASSERT_TRUE(sz::read_header(r, SZAuto::kStreamMagic).ok());
    EXPECT_EQ(r.get<std::uint8_t>(), order);
  }
}

TEST(GoldenAeszLorenzo, TodaysEncoderReproducesEveryNonNetworkByte) {
  for (int rank : {2, 3}) {
    const Field f = rank == 2 ? patched_2d() : patched_3d();
    const auto golden = from_hex(rank == 2 ? kGoldenAeszLorenzoRank2
                                           : kGoldenAeszLorenzoRank3);
    auto codec = lorenzo_only_aesz(rank);
    const auto now = codec->compress(f, ErrorBound::Abs(kEb));
    EXPECT_EQ(codec->last_stats().blocks_mean, rank == 2 ? 1u : 2u);
    EXPECT_EQ(codec->last_stats().blocks_ae, 0u);
    EXPECT_EQ(mask_network_fields(now), mask_network_fields(golden))
        << "rank " << rank;
  }
}

TEST(GoldenAeszLorenzo, YesterdaysBytesStillDecodeInBound) {
  for (int rank : {2, 3}) {
    const Field f = rank == 2 ? patched_2d() : patched_3d();
    auto golden = from_hex(rank == 2 ? kGoldenAeszLorenzoRank2
                                     : kGoldenAeszLorenzoRank3);
    auto codec = lorenzo_only_aesz(rank);
    // Stamp this machine's weight fingerprint (copied from a fresh stream
    // of the same model) and reseal; no block reads the network.
    const auto fresh = codec->compress(f, ErrorBound::Abs(kEb));
    ByteReader r(fresh);
    ASSERT_TRUE(sz::read_header(r, AESZ::kStreamMagic).ok());
    const std::size_t fp_at = r.pos() + 2 * sizeof(float);
    std::memcpy(golden.data() + fp_at, fresh.data() + fp_at, 8);
    auto recon = codec->decompress(sz::seal_stream(std::move(golden)));
    ASSERT_TRUE(recon.ok()) << recon.status().str();
    EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
              kEb * (1 + 1e-9));
  }
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
